import itertools
import random
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import stablepairs.linalg
import stablepairs.polytope

from stablepairs import (
    ContainmentContext,
    PointSet,
    certificate_normals,
    containment,
    contains_point,
    convex_combination,
    hull_contains,
    interior_contains,
    min_functional,
    minkowski_sum,
    scale,
    separating_functional,
)
from stablepairs.lattice import dot
from stablepairs.polytope import _facet_normals

from helpers import (
    _o_in_span,
    _o_rref,
    brute_hull_contains,
    reference_solve_lp,
    subset_walk_normals,
)

CTX11 = ContainmentContext([(1, 1)])


class TestContainsPoint:
    def test_edge_midpoint(self):
        assert contains_point(PointSet([(0, 0), (2, 0), (0, 2)]), (1, 1))

    def test_vertex_itself(self):
        assert contains_point(PointSet([(1, 0)]), (1, 0))

    def test_quotient_direction(self):
        assert contains_point(PointSet([(1, 0), (0, 1)]), (0, 0), CTX11)
        assert not contains_point(PointSet([(1, 0), (0, 1)]), (0, 0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            contains_point(PointSet([(1, 0)]), (1, 0, 0))

    @pytest.mark.parametrize("x", [(1, 0), (1, 0, 0, 0)])
    def test_dimension_mismatch_through_the_quotient(self, x):
        """`ContainmentContext.project` zips without a length check, so every
        public entry point checks the dimensions before it projects."""
        ctx = ContainmentContext([(1, 1, 1)])
        A = PointSet([(1, 0, 0), (0, 2, 0), (0, 0, 3)])
        for call in (containment, contains_point, convex_combination,
                     separating_functional, interior_contains):
            with pytest.raises(ValueError):
                call(A, x, ctx)
        with pytest.raises(ValueError):
            hull_contains(A, PointSet([x]), ctx)
        with pytest.raises(ValueError):
            certificate_normals(PointSet([x]), ctx)


class TestHullContains:
    def test_edges_inside_triangle(self):
        A = PointSet([(0, 0), (2, 0), (0, 2)])
        assert hull_contains(A, PointSet([(1, 0), (0, 1)]))

    def test_reflexive(self):
        A = PointSet([(3, 1), (0, -2), (1, 1)])
        assert hull_contains(A, A)

    def test_distinct_singletons(self):
        assert not hull_contains(PointSet([(1, 0)]), PointSet([(0, 1)]))

    def test_empty_inner_is_vacuous(self):
        assert hull_contains(PointSet([(1, 0)]), PointSet([]))

    def test_empty_outer_is_error(self):
        with pytest.raises(ValueError):
            hull_contains(PointSet([]), PointSet([(1, 0)]))


class TestSeparatingFunctional:
    def check(self, A, x, ctx=ContainmentContext()):
        g = separating_functional(A, x, ctx)
        assert dot(g, [Fraction(c) for c in x]) < min(
            dot(g, p) for p in A.points
        )
        for d in ctx.mod_directions:
            assert dot(g, d) == 0
        return g

    def test_examples(self):
        self.check(PointSet([(1, 0)]), (0, 1))
        self.check(PointSet([(2, 0)]), (0, 0))
        self.check(PointSet([(0, 1), (1, 1)]), (0, 0))

    def test_respects_quotient(self):
        # (0,0) is contained modulo the diagonal, (3,-3) is not
        assert contains_point(PointSet([(2, 0), (0, 2)]), (0, 0), CTX11)
        self.check(PointSet([(2, 0), (0, 2)]), (3, -3), CTX11)

    def test_contained_point_is_error(self):
        with pytest.raises(ValueError):
            separating_functional(PointSet([(0, 0), (1, 0)]), (0, 0))


class TestMinkowskiAndScale:
    def test_singletons(self):
        assert minkowski_sum(PointSet([(1, 0)]), PointSet([(0, 1)])).points == ((1, 1),)

    def test_scale(self):
        assert scale(PointSet([(1, 0), (0, 1)]), 2).points == ((0, 2), (2, 0))

    def test_square_from_segments(self):
        out = minkowski_sum(PointSet([(0, 0), (1, 0)]), PointSet([(0, 0), (0, 1)]))
        assert out.points == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_scale_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scale(PointSet([(1, 0)]), 0)


class TestMinFunctional:
    def test_examples(self):
        assert min_functional(PointSet([(2, 0), (0, 2)]), (1, -1)) == -2
        assert min_functional(PointSet([(5, -3), (2, 2)]), (0, 0)) == 0
        assert min_functional(PointSet([(1, 1)]), (3, 4)) == 7

    def test_empty_is_error(self):
        with pytest.raises(ValueError):
            min_functional(PointSet([]), (1,))

    @pytest.mark.parametrize("u", [(1,), (1, 0, 0)], ids=["short", "long"])
    def test_length_mismatch_is_error(self, u):
        with pytest.raises(ValueError, match=rf"^length mismatch: {len(u)} vs 2$"):
            min_functional(PointSet([(2, 0), (0, 2)]), u)

    def test_a_rational_functional_is_refused(self):
        # u is checked as a lattice point; an integral Fraction pairs as its int.
        with pytest.raises(ValueError, match="non-integral lattice coordinate 1/2"):
            min_functional([(2, 0), (0, 3)], (Fraction(1, 2), Fraction(-1, 3)))
        got = min_functional([(2, 0), (0, 3)], (Fraction(3), Fraction(-2)))
        assert got == -6 and type(got) is int


class TestInteriorContains:
    def test_cross_center(self):
        A = PointSet([(-1, 0), (1, 0), (0, 1), (0, -1)])
        assert interior_contains(A, (0, 0))

    def test_segment_endpoint(self):
        assert not interior_contains(PointSet([(0, 0), (1, 0)]), (1, 0))

    def test_segment_relative_interior(self):
        A = PointSet([(1, 0), (0, 1)])
        assert interior_contains(A, (Fraction(1, 2), Fraction(1, 2)))

    def test_point_outside(self):
        assert not interior_contains(PointSet([(0, 0), (1, 0)]), (0, 1))

    def test_quotient(self):
        # segment modulo the diagonal covers a neighbourhood of 0
        assert interior_contains(PointSet([(1, 0), (0, 1)]), (0, 0), CTX11)

    def test_singleton(self):
        # the relative interior of a point is the point
        assert interior_contains(PointSet([(2, 3)]), (2, 3))
        assert not interior_contains(PointSet([(2, 3)]), (2, 4))


points2d = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


def _pointset(data, dim, min_size=1, max_size=6):
    coords = st.tuples(*[st.integers(-4, 4)] * dim)
    return PointSet(data.draw(st.sets(coords, min_size=min_size, max_size=max_size)))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_hull_containment_matches_halfspace_oracle(data):
    dim = data.draw(st.integers(1, 3))
    A = _pointset(data, dim, 1, 8)
    B = _pointset(data, dim, 1, 4)
    use_ctx = data.draw(st.booleans()) and dim >= 2
    dirs = [(1,) * dim] if use_ctx else []
    ctx = ContainmentContext(dirs)
    assert hull_contains(A, B, ctx) == brute_hull_contains(
        A.points, B.points, dirs
    )


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_separation_certificates_on_random_outsiders(data):
    """`containment` answers with exactly one certificate, checked here
    independently; its two halves are `convex_combination` and
    `separating_functional`."""
    dim = data.draw(st.integers(1, 3))
    A = _pointset(data, dim, 1, 6)
    x = data.draw(st.tuples(*[st.integers(-6, 6)] * dim))
    dirs = [(1,) * dim] if dim >= 2 and data.draw(st.booleans()) else []
    ctx = ContainmentContext(dirs)
    answer = containment(A, x, ctx)
    assert (answer.weights is None) != (answer.separator is None)
    assert contains_point(A, x, ctx) == brute_hull_contains(A.points, [x], dirs)
    if contains_point(A, x, ctx):
        lambdas = convex_combination(A, x, ctx)
        assert lambdas == list(answer.weights)
        assert sum(lambdas) == 1
        assert all(l >= 0 for l in lambdas)
        rebuilt = [
            sum(l * p[i] for l, p in zip(lambdas, A.points)) for i in range(dim)
        ]
        assert _o_in_span(dirs, [r - c for r, c in zip(rebuilt, x)])
        assert stablepairs.polytope.is_convex_combination(A, x, lambdas, ctx)
    else:
        g = separating_functional(A, x, ctx)
        assert g == answer.separator
        assert all(dot(g, d) == 0 for d in dirs)
        assert dot(g, [Fraction(c) for c in x]) < min(dot(g, p) for p in A.points)
        # g holds ints, a positive multiple of -y lifted through F, for y the
        # reference simplex's Farkas certificate on the columns (Fa, 1) and
        # the target (Fx, 1).
        assert all(type(c) is int for c in g)
        F = ctx.covectors(dim)
        rows = [[dot(f, a) for a in A.points] for f in F] + [[1] * len(A)]
        rhs = [dot(f, x) for f in F] + [1]
        y = reference_solve_lp([0] * len(A), rows, rhs, [True] * len(A)).farkas
        lifted = [-sum(yi * f[j] for yi, f in zip(y, F)) for j in range(dim)]
        assert dot(g, lifted) > 0
        assert all(gi * lj == gj * li for gi, li in zip(g, lifted) for gj, lj in zip(g, lifted))


def test_is_convex_combination_rejects_wrong_weights():
    A = PointSet([(0, 0), (2, 0), (4, 0)])
    check = stablepairs.polytope.is_convex_combination
    half = Fraction(1, 2)
    assert check(A, (1, 0), [half, half, 0])
    assert not check(A, (1, 0), [half, half])  # one weight short
    assert not check(A, (1, 0), [Fraction(1, 4), 1, Fraction(-1, 4)])  # negative
    assert not check(A, (1, 0), [half, 0, half])  # combines to (2, 0)
    assert not check(A, (1, 0), [half, Fraction(1, 4), 0])  # sums to 3/4
    assert check(A, (1, 5), [half, half, 0], ContainmentContext([(0, 1)]))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_scale_equals_iterated_minkowski_sum(data):
    """m-fold self sum generates the same hull as the m-dilation: tensor-power
    supports have dilated hulls."""
    dim = data.draw(st.integers(1, 3))
    A = _pointset(data, dim, 1, 5)
    m = data.draw(st.integers(1, 3))
    summed = A
    for _ in range(m - 1):
        summed = minkowski_sum(summed, A)
    dilated = scale(A, m)
    assert hull_contains(summed, dilated)
    assert hull_contains(dilated, summed)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_certificate_normals_characterize_containment(data):
    dim = data.draw(st.integers(1, 3))
    A = _pointset(data, dim, 1, 6)
    B = _pointset(data, dim, 1, 4)
    use_ctx = data.draw(st.booleans()) and dim >= 2
    ctx = ContainmentContext([(1,) * dim] if use_ctx else [])
    normals = certificate_normals(A, ctx)
    by_normals = all(
        min_functional(B, u) >= min_functional(A, u) for u in normals
    )
    assert by_normals == hull_contains(A, B, ctx)


def _differential_sets(rng, rank):
    """Singleton, collinear, (from rank 3) planar and random point sets, and
    subsets of the {-1, 0, 1} cube, whose many coplanar points make facets
    share points without sharing a ridge."""
    box = lambda: tuple(rng.randint(-4, 4) for _ in range(rank))
    most = 9 if rank == 5 else 12
    yield PointSet([box()])
    base, step = box(), box()
    yield PointSet(
        tuple(b + t * s for b, s in zip(base, step)) for t in rng.sample(range(-3, 4), 3)
    )
    if rank >= 3:
        e1, e2 = box(), box()
        yield PointSet(
            tuple(a * x + b * y for x, y in zip(e1, e2))
            for a, b in rng.sample([(a, b) for a in range(-2, 3) for b in range(-2, 3)], 6)
        )
    for _ in range(12):
        yield PointSet(box() for _ in range(rng.randint(2, most)))
    cube = list(itertools.product((-1, 0, 1), repeat=rank))
    for _ in range(12):
        yield PointSet(rng.sample(cube, rng.randint(1, min(most, len(cube)))))
    if rank >= 4:
        e1, e2, e3 = box(), box(), box()
        yield PointSet(
            tuple(a * x + b * y + c * z for x, y, z in zip(e1, e2, e3))
            for a, b, c in rng.sample(list(itertools.product(range(-2, 3), repeat=3)), 8)
        )


@pytest.mark.parametrize("dirs", [
    [],
    [(1, 1, 1, 1)],
    [(2, 3, 4, 5)],
    [(1, 1, 1, 1), (3, -1, 0, 4)],
], ids=["none", "diagonal", "fractional", "two"])
def test_lift_is_the_adjoint_of_project(dirs):
    """<lift(h), x> = <h, project(x)> for every quotient covector h and
    point x, and lift(h) vanishes on the directions."""
    ctx = ContainmentContext(dirs)
    rng = random.Random(len(dirs) * 7 + sum(map(sum, dirs)))
    k = 4 - len(dirs)
    for _ in range(50):
        h = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(k)]
        x = [rng.randint(-9, 9) for _ in range(4)]
        g = ctx.lift(h)
        assert len(g) == 4
        assert dot(g, x) == dot(h, ctx.project(x))
        assert all(dot(g, d) == 0 for d in dirs)
    if not dirs:
        assert ctx.lift(h) is h


def _quotient_contexts(rank, constrained):
    """No direction, or the all-ones direction, then directions with other
    entries: there the quotient basis is fractional and the hull map of a
    lower-dimensional set is not the identity."""
    if not constrained:
        return [ContainmentContext()]
    contexts = [ContainmentContext([(1,) * rank])]
    if rank >= 2:
        contexts.append(ContainmentContext([(2, 3, 4, 5, 7)[:rank]]))
    if rank >= 4:
        contexts.append(ContainmentContext([(2, 3, 4, 5, 7)[:rank], (3, -1, 0, 4, 2)[:rank]]))
    return contexts


@pytest.mark.parametrize("constrained", [False, True])
@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_certificate_normals_match_subset_walk_oracle(rank, constrained):
    rng = random.Random(1000 * rank + constrained)
    for ctx in _quotient_contexts(rank, constrained):
        for A in _differential_sets(rng, rank):
            assert certificate_normals(A, ctx) == subset_walk_normals(A, ctx)


def _interior_by_normals(normals, A, x):
    """Relative interior read off certificate normals: strictly above the
    minimum on every normal that is not constant on A, and on the affine
    hull, i.e. at the common value, for every one that is."""
    for u in normals:
        values = [dot(u, a) for a in A]
        lo, ux = min(values), dot(u, x)
        if ux < lo or (ux == lo) != (lo == max(values)):
            return False
    return True


def _interior_probes(rng, A):
    """Two points of A, two edge midpoints, the centroid of A and that of a
    subset, and two points of a box twice as wide as the sets' own."""
    pts = A.points
    centroid = lambda sub: tuple(Fraction(sum(c), len(sub)) for c in zip(*sub))
    yield from rng.sample(pts, min(2, len(pts)))
    edges = list(itertools.combinations(pts, 2))
    yield from map(centroid, rng.sample(edges, min(2, len(edges))))
    yield centroid(pts)
    yield centroid(rng.sample(pts, rng.randint(1, len(pts))))
    for _ in range(2):
        yield tuple(rng.randint(-8, 8) for _ in pts[0])


@pytest.mark.slow
@pytest.mark.parametrize("constrained", [False, True])
@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_interior_contains_matches_subset_walk_oracle(rank, constrained):
    rng = random.Random(2000 * rank + constrained)
    for ctx in _quotient_contexts(rank, constrained):
        # Every other set, which holds the test near 10 s.
        for A in itertools.islice(_differential_sets(rng, rank), 0, None, 2):
            normals = subset_walk_normals(A, ctx)
            for x in _interior_probes(rng, A):
                assert interior_contains(A, x, ctx) == _interior_by_normals(normals, A, x), (A, x)


@pytest.mark.slow
@pytest.mark.parametrize("constrained", [False, True])
@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_containment_through_the_quotient_basis_matches_subset_walk_oracle(rank, constrained):
    """Containment and separation lifted through non-unit quotient bases:
    x is contained exactly when no oracle normal pairs below the minimum
    over A, and otherwise g vanishes on the directions and separates."""
    rng = random.Random(3000 * rank + constrained)
    for ctx in _quotient_contexts(rank, constrained):
        for A in itertools.islice(_differential_sets(rng, rank), 1, None, 2):
            normals = subset_walk_normals(A, ctx)
            for x in _interior_probes(rng, A):
                inside = all(dot(u, x) >= min_functional(A, u) for u in normals)
                assert contains_point(A, x, ctx) == inside, (A, x)
                if not inside:
                    g = separating_functional(A, x, ctx)
                    assert all(dot(g, d) == 0 for d in ctx.mod_directions)
                    assert dot(g, x) < min(dot(g, a) for a in A)


def _recording_lps(monkeypatch):
    """(caller, objective, rows, nonneg) per `solve_lp` call from `polytope`."""
    calls = []
    real = stablepairs.polytope.solve_lp

    def recording(objective, rows, rhs, nonneg, **kwargs):
        calls.append((sys._getframe(1).f_code.co_name, objective, rows, nonneg))
        return real(objective, rows, rhs, nonneg, **kwargs)

    monkeypatch.setattr(stablepairs.polytope, "solve_lp", recording)
    return calls


@pytest.mark.parametrize(
    "A, ctx, off, off_inside",
    [
        (PointSet([(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0),
                   (0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 0, 1), (0, 0, 0, -1)]), ContainmentContext(),
         (Fraction(1, 2), 0, 0, 0), True),
        (PointSet([(1, 0, 0), (0, 1, 0), (0, 0, 1)]), ContainmentContext([(1, 1, 1)]),
         (1, 0, 0), False),
        (PointSet([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -1)]),
         ContainmentContext([(2, 3, 4, 5), (3, -1, 0, 4)]), (Fraction(1, 2), 0, 0, 0), True),
        (PointSet([(2, 3)]), ContainmentContext(), (1, 1), False),
    ],
    ids=["cross4", "simplex_mod_diagonal", "two_directions", "singleton"],
)
def test_interior_contains_solves_one_cone_lp(monkeypatch, A, ctx, off, off_inside):
    """The origin is the centroid of every A here with more than one point,
    modulo the directions: weight 1 on every point certifies it, and no LP
    is posed.  Any other target is one cone LP of dim - nd rows and |A|
    columns."""
    calls = _recording_lps(monkeypatch)
    dim, k, nd = A.dim, len(A), len(ctx.mod_directions)
    centroid = k > 1
    assert interior_contains(A, (0,) * dim, ctx) == centroid
    assert interior_contains(A, off, ctx) == off_inside
    shapes = [(len(rows), len(objective)) for _, objective, rows, _ in calls]
    assert shapes == [(dim - nd, k)] * (1 if centroid else 2)


TRIANGLE = PointSet([(0, 0), (2, 0), (0, 2)])
HALF = Fraction(1, 2)
_POLYTOPE_ENTRIES = {
    "containment": lambda x, ctx: containment(TRIANGLE, x, ctx),
    "contains_point": lambda x, ctx: contains_point(TRIANGLE, x, ctx),
    "convex_combination": lambda x, ctx: convex_combination(TRIANGLE, x, ctx),
    "separating_functional": lambda x, ctx: separating_functional(TRIANGLE, x, ctx),
    "is_convex_combination": lambda x, ctx: stablepairs.polytope.is_convex_combination(
        TRIANGLE, x, [HALF, HALF, 0], ctx),
    "interior_contains": lambda x, ctx: interior_contains(TRIANGLE, x, ctx),
}


@pytest.mark.parametrize("entry", sorted(_POLYTOPE_ENTRIES))
@pytest.mark.parametrize("bad", [0.5, Decimal("0.5"), "1/2"], ids=["float", "decimal", "str"])
@pytest.mark.parametrize("ctx", [ContainmentContext(), CTX11], ids=["free", "mod_diagonal"])
def test_an_inexact_target_is_refused_before_any_lp(monkeypatch, entry, bad, ctx):
    """Every public entry that takes a target x refuses a coordinate that is
    not an int or a `Fraction` where x comes in, so no LP sees it."""
    def no_lp(*args, **kwargs):
        raise AssertionError("an LP was posed for an inexact target")

    monkeypatch.setattr(stablepairs.polytope, "solve_lp", no_lp)
    with pytest.raises(ValueError, match="non-exact"):
        _POLYTOPE_ENTRIES[entry]((bad, 0), ctx)
    with pytest.raises(ValueError, match="non-exact"):
        _POLYTOPE_ENTRIES[entry]((0, bad), ctx)


@pytest.mark.parametrize("ctx", [ContainmentContext(), CTX11], ids=["free", "mod_diagonal"])
def test_a_fraction_target_is_answered_exactly(monkeypatch, ctx):
    """`Fraction` targets, inside, on the boundary and outside, pose LPs
    that `solve_lp` answers as `reference_solve_lp` does, field for field."""
    real = stablepairs.polytope.solve_lp
    answered = []

    def compared(objective, rows, rhs, nonneg):
        res = real(objective, rows, rhs, nonneg)
        assert res == reference_solve_lp(objective, rows, rhs, nonneg)
        answered.append(res.status)
        return res

    monkeypatch.setattr(stablepairs.polytope, "solve_lp", compared)
    third = Fraction(1, 3)
    for x in [(HALF, third), (Fraction(3, 2), HALF), (Fraction(5, 2), third), (-third, HALF)]:
        answer = containment(TRIANGLE, x, ctx)
        assert (answer.weights is None) == (answer.separator is not None)
        interior_contains(TRIANGLE, x, ctx)
    assert set(answered) == {"optimal", "infeasible"}


def test_every_polytope_lp_is_a_cone_membership_problem(monkeypatch):
    """Zero objective, every column nonnegative, and `_cone_lp` the one caller."""
    calls = _recording_lps(monkeypatch)
    rng = random.Random(17)
    for rank in (1, 2, 3, 4):
        for ctx in _quotient_contexts(rank, False) + _quotient_contexts(rank, True):
            for A in itertools.islice(_differential_sets(rng, rank), 0, None, 6):
                for x in _interior_probes(rng, A):
                    interior_contains(A, x, ctx)
                    if not contains_point(A, x, ctx):
                        separating_functional(A, x, ctx)
    assert len(calls) > 500
    for caller, objective, rows, nonneg in calls:
        assert caller == "_cone_lp"
        assert not any(objective)
        assert all(nonneg) and len(nonneg) == len(objective)


class TestZeroDimensionalQuotient:
    """Directions spanning the space: the quotient basis is empty."""

    CTX = ContainmentContext([(1, 0), (0, 1)])

    def test_every_basis_row_annihilates_the_directions(self):
        assert self.CTX.basis == ()
        for ctx in (CTX11, ContainmentContext([(2, 3, 4, 5), (3, -1, 0, 4)])):
            dim = len(ctx.mod_directions[0])
            assert len(ctx.basis) == dim - len(ctx.mod_directions)
            assert all(dot(f, d) == 0 for f in ctx.basis for d in ctx.mod_directions)

    def test_every_point_is_contained(self):
        A = PointSet([(5, -7)])
        for x in ((5, -7), (0, 0), (Fraction(1, 3), 9)):
            assert contains_point(A, x, self.CTX)
            assert interior_contains(A, x, self.CTX)
            with pytest.raises(ValueError):
                separating_functional(A, x, self.CTX)
        assert convex_combination(A, (0, 0), self.CTX) == [1]

    def test_no_certificate_normals(self):
        assert certificate_normals(PointSet([(1, 0), (0, 3)]), self.CTX) == ()

    def test_dependent_directions_still_raise(self):
        with pytest.raises(ValueError):
            ContainmentContext([(1, 0), (0, 1), (1, 1)])
        with pytest.raises(ValueError):
            ContainmentContext([(1, 2), (2, 4)])


def test_certificate_normals_rank5_twenty_points_is_fast(monkeypatch):
    # The subset walk needs about 15 000 five-point subsets here, one
    # nullspace each; double description needs one integer elimination,
    # which seeds it.
    calls = []
    eliminate = stablepairs.linalg._eliminate

    def counting(*args, **kwargs):
        calls.append(1)
        return eliminate(*args, **kwargs)

    monkeypatch.setattr(stablepairs.linalg, "_eliminate", counting)
    rng = random.Random(5)
    A = PointSet({tuple(rng.randint(-5, 5) for _ in range(5)) for _ in range(20)})
    assert len(A) == 20
    start = time.perf_counter()
    normals = certificate_normals(A)
    assert time.perf_counter() - start < 1.0
    assert len(calls) == 1
    assert all(min_functional(A, u) < max(dot(u, p) for p in A) for u in normals)


@pytest.mark.parametrize("constrained", [False, True])
@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_certificate_normals_of_full_dimensional_hulls_build_no_fraction(
    monkeypatch, rank, constrained
):
    """At full rank the hull coordinates are the quotient coordinates and the
    hull map is the identity: one integer elimination (`linalg.first_basis`
    seeds the enumeration), no `linalg.rref`, `nullspace`, `integer_nullspace`
    or `left_inverse` call and no `Fraction`.  Lower-dimensional sets take
    the enforcers and the lift, and every set still matches the subset-walk
    oracle."""
    rng = random.Random(4000 * rank + constrained)
    cases = []
    for ctx in _quotient_contexts(rank, constrained):
        for A in _differential_sets(rng, rank):
            phi = [ctx.project(a) for a in A]
            offsets = [[x - y for x, y in zip(q, phi[0])] for q in phi[1:]]
            full = len(_o_rref(offsets)[1]) == len(ctx.covectors(rank))
            cases.append((A, ctx, subset_walk_normals(A, ctx), full))

    calls = []
    for name in ("rref", "nullspace", "integer_nullspace", "left_inverse", "_eliminate"):
        real = getattr(stablepairs.linalg, name)
        monkeypatch.setattr(stablepairs.linalg, name,
                            lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args))
    built, counting = [], [False]
    real_new = Fraction.__new__

    def new(cls, *args, **kwargs):
        if counting[0]:
            built.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", new)
    seen = {True: 0, False: 0}
    for A, ctx, expected, full in cases:
        calls.clear()
        built.clear()
        counting[0] = True
        got = certificate_normals(A, ctx)
        counting[0] = False
        assert got == expected, (A, ctx)
        if full:
            # None at all in a zero-dimensional quotient.
            one = ["_eliminate"] if A.dim > len(ctx.mod_directions) else []
            assert calls == one and built == [], (A, ctx)
        else:
            assert "integer_nullspace" in calls, (A, ctx)
        seen[full] += 1
    assert seen[True] >= 10
    # Every singleton is lower-dimensional, except in the zero-dimensional
    # quotient of rank 1 modulo its diagonal.
    if (rank, constrained) != (1, True):
        assert seen[False] >= 1


@pytest.mark.parametrize("A, ctx", [
    (PointSet([(0, 0, 0), (1, 2, 3), (2, 4, 6), (-1, -2, -3)]), ContainmentContext()),
    (PointSet([(1, -1, 2), (3, 1, 4), (-3, -5, -2)]), ContainmentContext()),
    (PointSet([(0, 0, 0), (1, 1, 1), (2, 2, 2)]), ContainmentContext([(1, 1, 1)])),
    (PointSet([(2, 0, 1), (4, 3, 5)]), ContainmentContext([(2, 3, 4)])),
    (PointSet([(2, -3, 5)]), ContainmentContext()),
    (PointSet([(2, -3, 5)]), ContainmentContext([(1, 1, 1)])),
    (PointSet([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)]), ContainmentContext()),
], ids=["collinear", "collinear-off-origin", "one-quotient-image", "one-image-fractional",
        "single-point", "single-point-quotient", "square-in-rank-4"])
def test_lower_dimensional_seeds_take_the_lift(monkeypatch, A, ctx):
    """Sets whose homogenized points do not span: the elimination of
    `linalg.first_basis` runs its last pivots into the identity block, so
    the seed is not a basis and its dual block must not be read.  These
    sets take the enforcers and the lift, and match the subset-walk
    oracle."""
    expected = subset_walk_normals(A, ctx)
    calls = []
    real = stablepairs.linalg.integer_nullspace
    monkeypatch.setattr(stablepairs.linalg, "integer_nullspace",
                        lambda *args: calls.append(1) or real(*args))
    assert certificate_normals(A, ctx) == expected
    assert calls == [1]


@pytest.mark.parametrize("A", [
    list(itertools.product((0, 1), repeat=3)),
    [(i, j) for i in range(3) for j in range(3)],
    [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)],
], ids=["cube", "grid", "simplex-with-edge-midpoints"])
def test_double_description_builds_each_facet_once(A):
    """Points on a facet of the cone built so far (a zero ray: the cube's
    coplanar vertices) add their row to that ray and build no copy of it,
    so each facet comes out of `_facet_normals` exactly once."""
    A = sorted(A)
    psi = [[a - b for a, b in zip(q, A[0])] for q in A]
    rays = [tuple(r) for r in _facet_normals(psi)]
    assert len(rays) == len(set(rays)) == len(subset_walk_normals(PointSet(A), ContainmentContext()))

def test_double_description_on_the_moment_curve_builds_few_rays(monkeypatch):
    """The cyclic polytope of 200 points of (t, t^2, t^3) has 2(n - 2)
    facets.  Taken in the stride order, double description builds about
    800 rays on the way (19 894 in sorted order).  Each ray it builds, seed
    rays included, is made primitive by one `gcd` over its d + 1 = 4
    entries, and each output covector by one over its 3 entries, so the
    calls of 4 arguments count the rays."""
    arities = []
    real = stablepairs.polytope.gcd
    monkeypatch.setattr(stablepairs.polytope, "gcd",
                        lambda *args: arities.append(len(args)) or real(*args))
    n = 200
    normals = certificate_normals(PointSet((t, t * t, t ** 3) for t in range(n)))
    assert len(normals) == 2 * (n - 2)
    assert arities.count(3) == len(normals)
    assert 4 <= arities.count(4) <= 2000
