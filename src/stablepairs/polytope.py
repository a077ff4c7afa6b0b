"""Exact convex geometry over the rationals, in V-representation.

Polytopes are handled as finite generating point sets; membership and
containment questions are decided by exact LP feasibility, optionally
modulo a list of quotient directions (the constraint covectors of the
ambient problem).  The context computes the quotient map F once, and every
hull question is one cone-membership LP in quotient coordinates
(`_cone_lp`): nonnegative weights, no objective, no free variable.
`containment` asks whether a point lies in a hull by one such LP and
returns a checked certificate either way: the convex weights of a feasible
LP, or the separating functional read off the Farkas certificate of an
infeasible one: cleared to integers once and lifted through F
(`ContainmentContext.lift`).
`convex_combination` and `separating_functional` are its two halves.

Facet enumeration exists only in `certificate_normals`, which runs the
double-description method in exact integer arithmetic (Motzkin et al.
1953; Fukuda and Prodon 1996), inserting the points in a golden-ratio
stride order, on integer hull coordinates: the quotient coordinates of
the point offsets when they have full rank, else their entries in the
pivot columns of the echelon basis of the offsets.  One elimination
(`linalg.first_basis`) decides the rank and builds the seed rays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt
from operator import mul
from typing import Iterable, Iterator, Sequence

from .lattice import (
    LatticePoint,
    OnePS,
    Scalar,
    dot,
    lattice_point,
)
from . import linalg
from .linprog import OPTIMAL, solve_lp


@dataclass(frozen=True)
class PointSet:
    """A finite, deduplicated, sorted set of lattice points.

    This is where points are checked: each input point goes once through
    `lattice_point`, and all must have one dimension.
    """

    points: tuple[LatticePoint, ...]

    def __init__(self, points: Iterable[Sequence[Scalar]] = ()):
        self._set_points(map(lattice_point, points))

    @classmethod
    def checked(cls, points: Iterable[Sequence[Scalar]]) -> tuple["PointSet", list[LatticePoint]]:
        """The point set of `points` and its checked points in input order,
        repeats kept, for a caller that aligns data with the input."""
        pts = [lattice_point(p) for p in points]
        ps = cls.__new__(cls)
        ps._set_points(pts)
        return ps, pts

    def _set_points(self, pts: Iterable[LatticePoint]) -> None:
        pts = sorted(set(pts))
        if pts and any(len(p) != len(pts[0]) for p in pts):
            raise ValueError("points of mixed dimension")
        object.__setattr__(self, "points", tuple(pts))

    @property
    def dim(self) -> int:
        if not self.points:
            raise ValueError("empty point set has no dimension")
        return len(self.points[0])

    def __iter__(self) -> Iterator[LatticePoint]:
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, p: object) -> bool:
        return p in self.points


@dataclass(frozen=True)
class ContainmentContext:
    """Directions to quotient by when testing hull membership.

    For the special linear convention this is the single all-ones vector:
    characters are compared modulo the diagonal.  The quotient map F, the
    integer basis of the covectors vanishing on the directions, is computed
    once here, and `project` and `lift` are the two maps through it;
    directions that span the space leave F empty.
    """

    mod_directions: tuple[LatticePoint, ...] = ()
    basis: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __init__(self, mod_directions: Iterable[Sequence[Scalar]] = ()):
        dirs = tuple(lattice_point(d) for d in mod_directions)
        dim = len(dirs[0]) if dirs else 0
        if any(len(d) != dim for d in dirs):
            raise ValueError("directions of mixed dimension")
        _, basis = linalg.integral(linalg.nullspace(dirs, dim))
        if len(basis) != dim - len(dirs):
            raise ValueError("quotient directions must be linearly independent")
        object.__setattr__(self, "mod_directions", dirs)
        object.__setattr__(self, "basis", tuple(map(tuple, basis)))

    def project(self, x: Sequence[Scalar]) -> Sequence[Scalar]:
        """Fx: the quotient coordinates of x, or x itself without directions;
        the length of x is checked by the callers (`_check_dims`)."""
        if not self.mod_directions:
            return x
        return [sum(map(mul, f, x)) for f in self.basis]

    def lift(self, h: Sequence[Scalar]) -> Sequence[Scalar]:
        """hF: the ambient covector of the quotient covector h, or h itself
        without directions."""
        if not self.mod_directions:
            return h
        return [sum(map(mul, h, col)) for col in zip(*self.basis)]

    def covectors(self, dim: int) -> Sequence[Sequence[int]]:
        """F, or the standard basis of the dual of R^dim without directions."""
        if self.mod_directions:
            return self.basis
        return [[int(j == i) for j in range(dim)] for i in range(dim)]


NO_CONTEXT = ContainmentContext()


def _as_pointset(A: PointSet | Iterable[Sequence[Scalar]]) -> PointSet:
    return A if isinstance(A, PointSet) else PointSet(A)


def _check_dims(A: PointSet, x: Sequence[Scalar] | None, ctx: ContainmentContext) -> int:
    """The dimension of A, checked against x and the directions.

    This is where a target x enters every hull LP: its coordinates must be
    ints or `Fraction`s, so the simplex sees only exact numbers.
    """
    dim = A.dim
    if x is not None:
        if len(x) != dim:
            raise ValueError(f"dimension mismatch: point has {len(x)}, set has {dim}")
        for c in x:
            if not isinstance(c, (int, Fraction)):
                raise ValueError(f"non-exact point coordinate {c!r}")
    for d in ctx.mod_directions:
        if len(d) != dim:
            raise ValueError("quotient direction dimension mismatch")
    return dim


def _cone_lp(columns: Sequence[Sequence[Scalar]], target: Sequence[Scalar]):
    """Feasibility LP for target in the cone of the columns: a zero
    objective and one nonnegative weight per column."""
    k = len(columns)
    return solve_lp([0] * k, list(zip(*columns)), list(target), [True] * k)


def _containment_columns(A: PointSet, x: Sequence[Scalar], ctx: ContainmentContext):
    """The columns (Fa, 1), one per point of A, and the target (Fx, 1): x
    lies in conv(A) + span(directions) exactly when the target is in the
    cone of the columns."""
    _check_dims(A, x, ctx)
    return [(*ctx.project(a), 1) for a in A.points], (*ctx.project(x), 1)


def _combines(columns: Sequence[Sequence[int]], weights: Sequence[Fraction], target) -> bool:
    """Exact check that the weights are nonnegative and weigh the columns
    to the target, in integers over their common denominator."""
    if len(weights) != len(columns):
        return False
    den, (nums,) = linalg.integral([weights])
    if any(n < 0 for n in nums):
        return False
    terms = [(n, col) for n, col in zip(nums, columns) if n]
    return all(
        sum(n * col[r] for n, col in terms) == den * t for r, t in enumerate(target)
    )


@dataclass(frozen=True)
class Containment:
    """The answer to one containment question, x in conv(A) + span(directions).

    Exactly one field is set.  `weights` are convex weights of x, aligned
    with the sorted points of A; `separator` is an integer g with
    <g, x> < min over A of <g, a>, vanishing on the directions: an
    integer positive multiple of -y lifted through F, y the LP's Farkas
    certificate.  Each was checked exactly before it was returned.
    """

    weights: tuple[Fraction, ...] | None = None
    separator: OnePS | None = None


def containment(
    A: PointSet | Iterable[Sequence[Scalar]],
    x: Sequence[Scalar],
    ctx: ContainmentContext = NO_CONTEXT,
) -> Containment:
    """Decide x in conv(A) + span(directions) by one cone LP, with its
    certificate either way.

    A feasible LP gives the convex weights of x, checked against the LP's
    own columns.  An infeasible one gives the Farkas certificate y: it is
    cleared to integers once (`linalg.integral`), and that positive
    multiple, negated, is lifted through F in integers to the separating
    functional, checked against every point.
    A certificate that fails its check raises RuntimeError.
    """
    A = _as_pointset(A)
    if not A.points:
        raise ValueError("empty point set")
    columns, target = _containment_columns(A, x, ctx)
    res = _cone_lp(columns, target)
    if res.status == OPTIMAL:
        weights = tuple(res.x)
        if not _combines(columns, weights, target):
            raise RuntimeError("internal: convex weights failed verification")
        return Containment(weights=weights)
    # -y pairs below on (Fx, 1) than on every (Fa, 1); cleared to integers
    # once, its positive multiple lifts through F in integers.
    _, (y,) = linalg.integral([res.farkas[:-1]])
    g = tuple(ctx.lift([-c for c in y]))
    gx = dot(g, x)
    if any(dot(g, d) for d in ctx.mod_directions) or not all(
        gx < dot(g, p) for p in A.points
    ):
        raise RuntimeError("internal: separation certificate failed verification")
    return Containment(separator=g)


def is_convex_combination(
    A: PointSet | Iterable[Sequence[Scalar]],
    x: Sequence[Scalar],
    weights: Sequence[Fraction],
    ctx: ContainmentContext = NO_CONTEXT,
) -> bool:
    """Exact check that the weights, aligned with the sorted points of A,
    are nonnegative, sum to one and combine the points to x modulo the
    directions: the check `containment` puts on its own weights."""
    columns, target = _containment_columns(_as_pointset(A), x, ctx)
    return _combines(columns, weights, target)


def convex_combination(
    A: PointSet | Iterable[Sequence[Scalar]],
    x: Sequence[Scalar],
    ctx: ContainmentContext = NO_CONTEXT,
) -> list[Fraction] | None:
    """Weights expressing x over conv(A) + span(directions), or None.

    The weights are aligned with the sorted points of A, nonnegative and
    summing to one; x minus their combination lies in the span of the
    directions.
    """
    weights = containment(A, x, ctx).weights
    return None if weights is None else list(weights)


def contains_point(
    A: PointSet | Iterable[Sequence[Scalar]],
    x: Sequence[Scalar],
    ctx: ContainmentContext = NO_CONTEXT,
) -> bool:
    """Exact test for x in conv(A) + span(quotient directions)."""
    return convex_combination(A, x, ctx) is not None


def hull_contains(
    A: PointSet | Iterable[Sequence[Scalar]],
    B: PointSet | Iterable[Sequence[Scalar]],
    ctx: ContainmentContext = NO_CONTEXT,
) -> bool:
    """True when every point of B lies in conv(A) modulo the directions.

    An empty B is vacuously contained; an empty A is an error.
    """
    A = _as_pointset(A)
    B = _as_pointset(B)
    if not B.points:
        return True
    if not A.points:
        raise ValueError("empty container point set")
    if B.dim != A.dim:
        raise ValueError("dimension mismatch between point sets")
    return all(contains_point(A, b, ctx) for b in B)


def separating_functional(
    A: PointSet | Iterable[Sequence[Scalar]],
    x: Sequence[Scalar],
    ctx: ContainmentContext = NO_CONTEXT,
) -> OnePS:
    """An integer g with <g, x> < min over A of <g, a>, vanishing on the
    quotient directions.

    This is the Farkas certificate y of the infeasible containment LP, as
    the integer positive multiple of -y lifted through F; it need not be
    primitive.  Calling it on a contained point is an error.
    """
    g = containment(A, x, ctx).separator
    if g is None:
        raise ValueError("point is contained; no separating functional exists")
    return g


def minkowski_sum(
    A: PointSet | Iterable[Sequence[Scalar]],
    B: PointSet | Iterable[Sequence[Scalar]],
) -> PointSet:
    """Pairwise sumset; generates the Minkowski sum of the hulls."""
    A = _as_pointset(A)
    B = _as_pointset(B)
    if not A.points or not B.points:
        raise ValueError("empty point set")
    if A.dim != B.dim:
        raise ValueError("dimension mismatch between point sets")
    return PointSet(
        tuple(x + y for x, y in zip(a, b)) for a in A.points for b in B.points
    )


def scale(A: PointSet | Iterable[Sequence[Scalar]], m: int) -> PointSet:
    """Pointwise dilation by a positive integer; generates m * conv(A)."""
    if m < 1:
        raise ValueError(f"scale factor must be >= 1, got {m}")
    A = _as_pointset(A)
    return PointSet(tuple(m * c for c in p) for p in A.points)


def min_functional(A: PointSet | Iterable[Sequence[Scalar]], u: Sequence[int]) -> int:
    """Exact minimum of <u, a> over the point set; u is checked as every
    point is (`lattice_point`)."""
    A, u = _as_pointset(A), lattice_point(u)
    if not A.points:
        raise ValueError("empty point set")
    if len(u) != A.dim:
        raise ValueError(f"length mismatch: {len(u)} vs {A.dim}")
    return min([sum(map(mul, u, p)) for p in A.points])


def interior_contains(
    A: PointSet | Iterable[Sequence[Scalar]],
    x: Sequence[Scalar],
    ctx: ContainmentContext = NO_CONTEXT,
) -> bool:
    """Relative-interior membership of x in conv(A) + span(directions).

    x is relative-interior exactly when sum lambda_a (Fa - Fx) = 0 for
    some weights lambda_a all positive.  Scaled so that every weight is at
    least one, lambda_a = 1 + mu_a with mu_a >= 0, that is one cone LP of
    dim - nd rows and |A| columns:

        F(|A| x - sum a)  in the cone of the  Fa - Fx.

    The target is computed first, with one projection.  When it is 0, x is
    the centroid of A modulo the directions (0 for the cross polytope and
    for the special-linear simplex), and weight 1 on every point is the
    certificate: no LP is posed.
    """
    A = _as_pointset(A)
    if not A.points:
        raise ValueError("empty point set")
    _check_dims(A, x, ctx)
    n = len(A.points)
    target = ctx.project([n * c - sum(col) for c, col in zip(x, zip(*A.points))])
    if not any(target):
        return True
    fx = ctx.project(x)
    cols = [[c - cx for c, cx in zip(ctx.project(a), fx)] for a in A.points]
    return _cone_lp(cols, target).status == OPTIMAL


def certificate_normals(
    A: PointSet | Iterable[Sequence[Scalar]],
    ctx: ContainmentContext = NO_CONTEXT,
) -> tuple[OnePS, ...]:
    """A finite set of admissible integer covectors certifying containment.

    For any finite B of matching dimension,

        conv(B) subset of conv(A) + span(directions)
        <=>  min over B of <u, .>  >=  min over A of <u, .>  for every u here.

    The set combines the inward facet normals of the quotient image of
    conv(A) with +/- generators pinning down its affine hull.  The facets
    come from an exact double-description enumeration in hull coordinates
    (`_facet_normals`), not from a walk over point subsets.

    Everything runs in integers, in the k = dim - len(directions) quotient
    coordinates of the context's integer basis F, and each normal goes
    back to the ambient lattice through `ContainmentContext.lift`.  When
    the point offsets have full rank k, the one seeding elimination of
    `_facet_normals` says so, the hull coordinates are their quotient
    coordinates and the hull map T is the identity: no `Fraction` is built.
    Below full rank, the functionals constant on the image of A (the
    integer nullspace of the offsets) are added in both signs, the hull
    coordinates of a point are its offset's entries in the pivot columns
    of `rref(offsets)`, and the facet normals are lifted through T, the
    left inverse of those rows, scaled once to integers.
    """
    A = _as_pointset(A)
    if not A.points:
        raise ValueError("empty point set")
    k = _check_dims(A, None, ctx) - len(ctx.mod_directions)
    if k == 0:
        return ()
    phi = [ctx.project(p) for p in A.points]
    p0 = phi[0]
    psi = [[a - b for a, b in zip(q, p0)] for q in phi]
    # At full rank the hull coordinates are psi itself, T the identity.
    raw = _facet_normals(psi)
    if raw is None:  # lower-dimensional
        # Affine-hull enforcers: functionals constant on the image of A.
        _, enforcers = linalg.integer_nullspace(psi[1:], k)
        raw = [h for g in enforcers for h in (g, [-c for c in g])]
        # Facet normals within the affine hull, in hull coordinates.
        wrows, pivots = linalg.rref(psi[1:])
        if wrows:
            _, T = linalg.integral(linalg.left_inverse(wrows))  # maps offsets to hull coordinates
            for h in _facet_normals([[q[c] for c in pivots] for q in psi]):
                raw.append([sum(a * b for a, b in zip(h, col)) for col in zip(*T)])

    out: set[OnePS] = set()
    for u in map(ctx.lift, raw):
        if any(u):
            g = gcd(*u)
            out.add(tuple([c // g for c in u]))
    return tuple(sorted(out))


def _stride(n: int) -> int:
    """The golden-ratio step about 0.618 n, made coprime to n, so that
    i * step mod n visits every index once."""
    step = max(1, (isqrt(5 * n * n) - n) // 2)
    while gcd(step, n) != 1:
        step += 1
    return step


def _facet_normals(psi: Sequence[Sequence[int]]) -> list[list[int]] | None:
    """Inward facet normals of conv(psi), or None when psi does not
    affinely span its whole space R^d.

    Double description over the integers: for the integer points q of psi,
    the cone {(h, c) : <h, q> - c >= 0 for every q} is pointed, and its
    extreme rays are exactly the pairs (h, min of <h, q>) with h an inward
    facet normal.  The cone is seeded with the simplicial cone of the first
    d + 1 affinely independent points, whose rays are the dual basis of
    their rows (q, -1) (`linalg.first_basis`, one elimination), then cut
    by the remaining points one at a time, combining only the +/- ray
    pairs that pass the combinatorial adjacency test.

    The points are taken in a golden-ratio stride order (`_stride`), not
    in their sorted order: neighbouring sorted points, such as those of a
    curve, cut the cone almost alike, and taking them in turn builds many
    rays that the next points cut away again (Fukuda and Prodon 1996).  On
    300 points of the moment curve in dimension 3 the stride builds 1 247
    rays, the sorted order 44 844.
    """
    d = len(psi[0])
    size = len(psi)
    step = _stride(size)
    rows = [(*psi[i * step % size], -1) for i in range(size)]
    basis = linalg.first_basis(rows)
    if basis is None:
        return None
    seed, dual = basis
    # A ray is [primitive vector, bitmask of the processed rows it lies on].
    rays = []
    for j, r in zip(seed, dual):
        g = gcd(*r)
        rays.append([[c // g for c in r], sum(1 << i for i in seed if i != j)])
    seeded = set(seed)
    for i, a in enumerate(rows):
        if i in seeded:
            continue
        bit = 1 << i
        pos, neg, kept = [], [], []
        for ray in rays:
            v = sum(map(mul, a, ray[0]))
            if v > 0:
                pos.append((ray, v))
                kept.append(ray)
            elif v < 0:
                neg.append((ray, v))
            else:
                ray[1] |= bit
                kept.append(ray)
        for p, vp in pos:
            for n, vn in neg:
                common = p[1] & n[1]
                # Adjacent iff no third ray lies on every row both lie on;
                # those rows must number at least d - 1 (rank d - 1 in the
                # cone of dimension d + 1).
                if common.bit_count() < d - 1 or any(
                    other is not p and other is not n and other[1] & common == common
                    for other in rays
                ):
                    continue
                r = [vp * cn - vn * cp for cn, cp in zip(n[0], p[0])]
                g = gcd(*r)
                kept.append([[c // g for c in r], common | bit])
        rays = kept
    return [r[:d] for r, _ in rays]
