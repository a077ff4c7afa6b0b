"""Semistability of pairs of vectors under a torus action.

A pair (v, w) is torus-semistable exactly when the weight polytope of v
sits inside the weight polytope of w, compared modulo the constraint
directions of the ambient problem.  Unstable verdicts carry a
destabilizing one-parameter subgroup whose weight gap certifies the
verdict; semistable ones can be asked for a relative-invariant monomial
certificate.  Strict stability perturbs the pair by the reference polytope
and a tensor exponent; the answers are read off certificate normals, where
the question is one integer inequality linear in the exponent; the base
verdict of `stable` is read off the same normals, so an unstable base pays
for a facet enumeration instead of containment LPs.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import inf, log
from operator import mul
from sys import float_info

from .lattice import (
    LatticePoint,
    OnePS,
    Scalar,
    clear_denominators,
    lattice_point,
    require_admissible,
)
from . import linalg
from .polytope import (
    ContainmentContext,
    PointSet,
    certificate_normals,
    containment,
    convex_combination,
    hull_contains,
    interior_contains,
    is_convex_combination,
    min_functional,
    minkowski_sum,
    scale,
)


@dataclass(frozen=True)
class StabilityProblem:
    """Ambient torus data: lattice rank, constraint covectors, reference polytope.

    Admissible one-parameter subgroups annihilate every constraint; hull
    comparisons happen modulo the span of the constraints.  The reference
    polytope plays the role of the weight polytope of the identity
    operator: it must be full-dimensional modulo the constraints with the
    origin in its strict interior, which is what makes module degrees
    finite and strict stability meaningful.
    """

    rank: int
    constraints: tuple[LatticePoint, ...]
    q_polytope: PointSet
    ctx: ContainmentContext = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        rank: int,
        constraints: Iterable[Sequence[int]] = (),
        q_polytope: PointSet | Iterable[Sequence[int]] | None = None,
    ):
        if rank < 1:
            raise ValueError("rank must be positive")
        cons = tuple(lattice_point(c) for c in constraints)
        for c in cons:
            if len(c) != rank:
                raise ValueError("constraint covector has wrong length")
        if q_polytope is None:
            q_polytope = cross_polytope(rank)
        elif not isinstance(q_polytope, PointSet):
            q_polytope = PointSet(q_polytope)
        if not q_polytope.points or q_polytope.dim != rank:
            raise ValueError("reference polytope must be nonempty of the problem rank")
        ctx = _context(cons)  # also validates independence
        origin = (0,) * rank
        if not interior_contains(q_polytope, origin, ctx):
            raise ValueError("reference polytope must contain 0 in its interior")
        q0 = q_polytope.points[0]
        spanning = [[a - b for a, b in zip(q, q0)] for q in q_polytope.points[1:]]
        spanning += cons
        if linalg.matrix_rank(spanning) != rank:
            raise ValueError(
                "reference polytope must be full-dimensional modulo the constraints"
            )
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "constraints", cons)
        object.__setattr__(self, "q_polytope", q_polytope)
        object.__setattr__(self, "ctx", ctx)

    @cached_property
    def q_normals(self) -> tuple[OnePS, ...]:
        """Certificate normals of the reference polytope, computed once per
        ambient (`_reference_normals`)."""
        return _reference_normals(self.q_polytope, self.ctx)

    @classmethod
    def special_linear(cls, n: int) -> "StabilityProblem":
        """SL(n+1) convention: rank n+1, trace-zero constraint, simplex reference."""
        rank = n + 1
        simplex = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
        return cls(rank, [(1,) * rank], simplex)

    @classmethod
    def free(
        cls, rank: int, q_polytope: PointSet | Iterable[Sequence[int]] | None = None
    ) -> "StabilityProblem":
        """Unconstrained torus of the given rank; cross-polytope reference by default."""
        return cls(rank, (), q_polytope)


# Ambient data shared by equal problems.  Both values are immutable, so
# sharing them is safe; the checks of `StabilityProblem.__init__` still run
# on every build, and a rejected constraint tuple (an exception) is not
# cached.


@lru_cache(maxsize=64)
def _context(constraints: tuple[LatticePoint, ...]) -> ContainmentContext:
    """The containment context of a constraint tuple, built once."""
    return ContainmentContext(constraints)


@lru_cache(maxsize=64)
def _reference_normals(
    q_polytope: PointSet, ctx: ContainmentContext
) -> tuple[OnePS, ...]:
    """Certificate normals of a reference polytope, enumerated once."""
    return certificate_normals(q_polytope, ctx)


@lru_cache(maxsize=64, typed=True)
def cross_polytope(rank: int) -> PointSet:
    """The points +-e_i of Z^rank, built once per rank (a `PointSet` is
    immutable, so every caller may share it)."""
    pts = []
    for i in range(rank):
        e = [0] * rank
        e[i] = 1
        pts.append(tuple(e))
        pts.append(tuple(-c for c in e))
    return PointSet(pts)


_ONE = Fraction(1)


def _fraction(m: Scalar) -> Fraction:
    return m if type(m) is Fraction else Fraction(m)


def _aligned_magnitudes(
    ps: PointSet,
    pts: Sequence[LatticePoint],
    magnitudes: Mapping[Sequence[int], Scalar] | Iterable[Scalar],
) -> tuple[Fraction, ...]:
    """The magnitudes of `WeightedVector`, aligned with the points of ps;
    pts are the checked input points, parallel to a magnitudes list."""
    if isinstance(magnitudes, Mapping):
        items = ((lattice_point(p), _fraction(m)) for p, m in magnitudes.items())
    else:
        mags = [_fraction(m) for m in magnitudes]
        if len(mags) != len(pts):
            raise ValueError("magnitudes do not match support points")
        items = zip(pts, mags)
    mag_map: dict[LatticePoint, Fraction] = {}
    for p, m in items:
        if mag_map.setdefault(p, m) != m:
            raise ValueError(f"conflicting magnitudes for support point {p}")
    if mag_map.keys() != set(ps.points):
        raise ValueError("magnitudes must be given exactly on the support")
    aligned = tuple(mag_map[p] for p in ps.points)
    if any(m <= 0 for m in aligned):
        raise ValueError("squared magnitudes must be strictly positive")
    return aligned


def _log_magnitude(m: Fraction) -> float:
    # log(float(m)) while m is a normal float; past the float range, where
    # float(m) overflows, vanishes or drops bits, from the exact ratio.
    try:
        f = float(m)
    except OverflowError:
        f = inf
    if float_info.min <= f < inf:
        return log(f)
    return log(m.numerator) - log(m.denominator)


@dataclass(frozen=True)
class WeightedVector:
    """A vector known through its character support and squared magnitudes.

    `magnitudes[i]` is |v_a|^2 for the i-th support point, a strictly
    positive rational.  Verdicts depend only on the support; the energy
    module is the one consumer of the magnitudes.

    The support is a `PointSet`, or points to build one from, or a mapping
    from points to magnitudes; magnitudes are a list parallel to the input
    points, a mapping from points, or omitted (all one).  Each point is
    checked once, by `PointSet`.  A point given twice, or two inputs that
    are the same point once checked (`(2,)` and `(Fraction(2),)`), merge
    when their magnitudes are equal and raise when they differ.
    """

    support: PointSet
    magnitudes: tuple[Fraction, ...]

    def __init__(
        self,
        support: PointSet | Iterable[Sequence[int]] | Mapping[Sequence[int], Scalar],
        magnitudes: Mapping[LatticePoint, Scalar] | Iterable[Scalar] | None = None,
    ):
        if isinstance(support, Mapping):
            if magnitudes is not None:
                raise ValueError("magnitudes given twice")
            support, magnitudes = list(support), list(support.values())
        if isinstance(support, PointSet):
            ps, pts = support, support.points
        else:
            ps, pts = PointSet.checked(support)
        if not pts:
            raise ValueError("a weighted vector needs a nonempty support")
        if magnitudes is None:
            aligned = (_ONE,) * len(ps)
        else:
            aligned = _aligned_magnitudes(ps, pts, magnitudes)
        object.__setattr__(self, "support", ps)
        object.__setattr__(self, "magnitudes", aligned)

    @cached_property
    def log_magnitudes(self) -> tuple[float, ...]:
        """Natural logs of the squared magnitudes, aligned with the support."""
        return tuple(map(_log_magnitude, self.magnitudes))


@dataclass(frozen=True)
class Pair:
    """The pair (v, w) together with its ambient problem."""

    v: WeightedVector
    w: WeightedVector
    problem: StabilityProblem

    def __post_init__(self):
        r = self.problem.rank
        if self.v.support.dim != r or self.w.support.dim != r:
            raise ValueError("support dimension does not match the problem rank")


@dataclass(frozen=True)
class Verdict:
    """A torus-semistability verdict and its certificate.

    An unstable verdict carries its destabilizing `witness`.  A semistable
    one carries in `weights` the convex weights, aligned with the sorted
    w-support, of each v-point outside the w-support: the solutions of the
    containment LPs that decided it.  The weights take no part in
    equality or `repr`.
    """

    semistable: bool
    witness: OnePS | None = None
    weights: Mapping[LatticePoint, tuple[Fraction, ...]] = field(
        default_factory=dict, compare=False, repr=False
    )


@dataclass(frozen=True)
class StableVerdict:
    status: str  # "stable" | "not_stable_up_to" | "unstable_base"
    exponent: int | None = None
    m_max: int | None = None
    witness: OnePS | None = None

    STABLE = "stable"
    NOT_STABLE_UP_TO = "not_stable_up_to"
    UNSTABLE_BASE = "unstable_base"

    @classmethod
    def stable(cls, m: int) -> "StableVerdict":
        return cls(cls.STABLE, exponent=m)

    @classmethod
    def not_stable_up_to(cls, m_max: int) -> "StableVerdict":
        return cls(cls.NOT_STABLE_UP_TO, m_max=m_max)

    @classmethod
    def unstable_base(cls, witness: OnePS) -> "StableVerdict":
        return cls(cls.UNSTABLE_BASE, witness=witness)

    @property
    def is_stable(self) -> bool:
        return self.status == self.STABLE


def t_semistable(p: Pair) -> Verdict:
    """Decide torus semistability of the pair exactly.

    Semistable iff the weight polytope of v is contained in that of w
    modulo the constraint directions: one containment LP per v-point
    outside the w-support.  If every point lies inside, the verdict keeps
    the convex weights of each.  Otherwise some point escapes, the
    integer separating functional of its failed LP is made primitive,
    and that covector destabilizes: its weight on w
    strictly exceeds its weight on v (`futaki_gen` > 0).
    """
    ctx = p.problem.ctx
    weights = {}
    for a in p.v.support:
        if a in p.w.support:
            continue
        answer = containment(p.w.support, a, ctx)
        if answer.weights is None:
            u = clear_denominators(answer.separator)
            if not futaki_gen(u, p) > 0:
                raise RuntimeError("internal: destabilizer failed its weight check")
            return Verdict(False, u)
        weights[a] = answer.weights
    return Verdict(True, weights=weights)


def degree_of(v: WeightedVector, problem: StabilityProblem) -> int:
    """Least k >= 1 with the weight polytope of v inside k times the reference.

    Each certificate normal u of the reference Q (cached on the problem)
    has min_Q(u) < 0 (0 is interior) and asks k >= min_v(u) / min_Q(u);
    one LP check confirms.
    """
    ctx = problem.ctx
    q_poly = problem.q_polytope
    k = 1
    for u in problem.q_normals:
        k = max(k, -(min_functional(v.support, u) // -min_functional(q_poly, u)))
    if not hull_contains(scale(q_poly, k), v.support, ctx):
        raise RuntimeError("internal: module degree failed its containment check")
    return k


def perturb(p: Pair, m: int, q: int) -> Pair:
    """The degree-m perturbation of the pair.

    The v side becomes the identity block to the q-th tensor power times
    the m-th power of v; the w side the (m+1)-st power of w.  Only hulls
    feed the downstream criteria, so supports are hull-generating sets and
    all magnitudes are set to one.  `stable` passes the module degree
    `degree_of(p.v, p.problem)` as q.
    """
    if m < 1:
        raise ValueError("perturbation exponent must be >= 1")
    v_support = minkowski_sum(scale(p.problem.q_polytope, q), scale(p.v.support, m))
    w_support = scale(p.w.support, m + 1)
    return Pair(WeightedVector(v_support), WeightedVector(w_support), p.problem)


def _scan_normals(p: Pair) -> tuple[OnePS | None, list[tuple]]:
    """The first certificate normal of W that destabilizes, or None (then
    the pair is semistable), and (u, *`_futaki_pairings`(u, p)) for each
    normal u before it: every normal is paired with both supports once."""
    passes = []
    for u in certificate_normals(p.w.support, p.problem.ctx):
        a, xw, xv = _futaki_pairings(u, p)
        if a > 0:
            return u, passes
        passes.append((u, a, xw, xv))
    return None, passes


def _slope_offset(p: Pair, q: int, u: Sequence[int], xw: list[int]) -> int:
    """b with futaki_gen(u, perturb(p, m, q)) == futaki_gen(u, p) * m + b
    for every m, from the pairings xw of u with the w-support."""
    return min(xw) - q * min_functional(p.problem.q_polytope, u)


def stable(p: Pair, m_max: int) -> StableVerdict:
    """Least perturbation exponent, up to m_max, making the pair semistable.

    One scan of the certificate normals u of W (`_scan_normals`) decides
    both steps.  The base is unstable exactly when some u weighs more on w
    than on v, and that u is the witness; so an unstable base pays for a
    facet enumeration, not for containment LPs.  Otherwise each u asks
    a * m + b <= 0, a = its `futaki_gen` <= 0 and b its `_slope_offset`:
    a = 0 < b rules out every m, a < 0 needs m >= b / -a.  The largest
    bound is the least exponent; one containment check confirms it.  A u
    with a = 0 and min_w(u) >= 0 has b > 0 whatever the module degree
    q >= 1 (min_Q(u) < 0): "never stable" before q is known.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    witness, passes = _scan_normals(p)
    if witness is not None:
        return StableVerdict.unstable_base(witness)
    if any(a == 0 and min(xw) >= 0 for _, a, xw, _ in passes):
        return StableVerdict.not_stable_up_to(m_max)  # never stable
    q = degree_of(p.v, p.problem)
    e = 1
    for u, a, xw, _ in passes:
        b = _slope_offset(p, q, u, xw)
        if a == 0 and b > 0:
            return StableVerdict.not_stable_up_to(m_max)  # never stable
        if a < 0:
            e = max(e, -(b // a))
    if e > m_max:
        return StableVerdict.not_stable_up_to(m_max)
    if not t_semistable(perturb(p, e, q)).semistable:
        raise RuntimeError("internal: stability exponent failed its containment check")
    return StableVerdict.stable(e)


def futaki_gen(u: Sequence[int], p: Pair) -> int:
    """Generalized Futaki number of the pair along u: weight on w minus weight on v.

    Nonpositive over all admissible covectors exactly when the pair is
    semistable; u destabilizes exactly when it is positive, and that test
    is the one way the package writes "u destabilizes".
    """
    return _futaki_pairings(u, p)[0]


def _futaki_pairings(u: Sequence[int], p: Pair) -> tuple[int, list[int], list[int]]:
    """`futaki_gen` of u, and the exact pairings <u, .> with the w- and the
    v-support points that it is the difference of the minima of.

    The one pass over both supports for a covector, where it is checked
    as every support point is (`lattice_point`) and admissible; the
    verdicts of `stable` read it, and the energy's lines along u round the
    same pairings to their slopes.
    """
    u = lattice_point(u)
    if len(u) != p.problem.rank:
        raise ValueError(f"length mismatch: {len(u)} vs {p.problem.rank}")
    require_admissible(u, p.problem.constraints)
    xw = [sum(map(mul, u, b)) for b in p.w.support.points]
    xv = [sum(map(mul, u, a)) for a in p.v.support.points]
    return min(xw) - min(xv), xw, xv


def relative_invariant(
    p: Pair, chi: Sequence[int], verdict: Verdict | None = None
) -> tuple[int, dict[LatticePoint, int]]:
    """Monomial certificate for a chosen v-support character.

    Returns (d, exponents) with the exponents nonnegative integers on
    w-support points, summing to d, whose weighted character sum equals
    d * chi modulo the constraint directions.  The monomial in the
    w-coordinates with those exponents is then a degree-d eigenfunction of
    character d * chi that is nonzero at (v, w) and vanishes identically on
    the v side.

    Only chi is certified: a ValueError means chi lies outside the weight
    polytope of w.  Whether the whole pair is semistable is the caller's
    question (`t_semistable`); a semistable pair has a certificate for
    every chi of its v-support.  Given that pair's semistable `verdict`, the
    weights of chi are read off it instead of solving the LP again; they
    are re-checked against the w-support first, and weights that do not
    check out (a verdict of another pair) are ignored.
    """
    chi = lattice_point(chi)
    if chi not in p.v.support:
        raise ValueError(f"{chi} is not in the support of v")
    if chi in p.w.support:
        return 1, {chi: 1}  # the one-term combination: a single w-coordinate
    ctx = p.problem.ctx
    lambdas = verdict.weights.get(chi) if verdict is not None else None
    if lambdas is None or not is_convex_combination(p.w.support, chi, lambdas, ctx):
        lambdas = convex_combination(p.w.support, chi, ctx)
    if lambdas is None:
        raise ValueError(f"{chi} lies outside the weight polytope of w")
    d, (nums,) = linalg.integral([lambdas])
    exponents = {point: n for point, n in zip(p.w.support.points, nums) if n}
    if sum(exponents.values()) != d:
        raise RuntimeError("internal: certificate exponents do not sum to the degree")
    return d, exponents


def check_relative_invariant(
    p: Pair, chi: Sequence[int], d: int, exponents: Mapping[LatticePoint, int]
) -> bool:
    """Exact verification of a relative-invariant certificate."""
    if d < 1 or any(n < 0 for n in exponents.values()):
        return False
    if any(lattice_point(b) not in p.w.support for b in exponents):
        return False
    rank = p.problem.rank
    if sum(exponents.values()) != d or len(chi) != rank:
        return False
    total = [0] * rank
    for b, n in exponents.items():
        for i in range(rank):
            total[i] += n * b[i]
    residue = [t - d * c for t, c in zip(total, lattice_point(chi))]
    return linalg.in_span(p.problem.constraints, residue)
