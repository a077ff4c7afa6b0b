"""Semistability of pairs of vectors under a torus action.

A pair (v, w) is torus-semistable exactly when the weight polytope of v
sits inside the weight polytope of w, compared modulo the constraint
directions of the ambient problem.  Unstable verdicts carry a
destabilizing one-parameter subgroup whose weight gap certifies the
verdict; semistable ones can be asked for a relative-invariant monomial
certificate.  Strict stability perturbs the pair by the reference polytope
and a tensor exponent; the answers are read off certificate normals, where
the question is one integer inequality linear in the exponent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm, log
from typing import Iterable, Mapping, Sequence

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
    convex_combination,
    hull_contains,
    interior_contains,
    min_functional,
    minkowski_sum,
    scale,
    separating_functional,
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
        ctx = ContainmentContext(cons)  # also validates independence
        origin = (0,) * rank
        if not interior_contains(q_polytope, origin, ctx):
            raise ValueError("reference polytope must contain 0 in its interior")
        q0 = q_polytope.points[0]
        spanning = [tuple(a - b for a, b in zip(q, q0)) for q in q_polytope.points[1:]]
        spanning += [list(c) for c in cons]
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
        """Certificate normals of the reference polytope, computed once."""
        return certificate_normals(self.q_polytope, self.ctx)

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


def cross_polytope(rank: int) -> PointSet:
    pts = []
    for i in range(rank):
        e = [0] * rank
        e[i] = 1
        pts.append(tuple(e))
        pts.append(tuple(-c for c in e))
    return PointSet(pts)


@dataclass(frozen=True)
class WeightedVector:
    """A vector known through its character support and squared magnitudes.

    `magnitudes[i]` is |v_a|^2 for the i-th support point, a strictly
    positive rational.  Verdicts depend only on the support; the energy
    module is the one consumer of the magnitudes.
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
            magnitudes = {lattice_point(p): Fraction(m) for p, m in support.items()}
            support = list(magnitudes)
        pts_in = list(support.points if isinstance(support, PointSet) else
                      [lattice_point(p) for p in support])
        if not pts_in:
            raise ValueError("a weighted vector needs a nonempty support")
        if magnitudes is None:
            mag_map = {p: Fraction(1) for p in pts_in}
        elif isinstance(magnitudes, Mapping):
            mag_map = {lattice_point(p): Fraction(m) for p, m in magnitudes.items()}
        else:
            mags = [Fraction(m) for m in magnitudes]
            if len(mags) != len(pts_in):
                raise ValueError("magnitudes do not match support points")
            mag_map = {}
            for p, m in zip(pts_in, mags):
                if p in mag_map and mag_map[p] != m:
                    raise ValueError(f"conflicting magnitudes for support point {p}")
                mag_map[p] = m
        ps = PointSet(pts_in)
        if set(mag_map) != set(ps.points):
            raise ValueError("magnitudes must be given exactly on the support")
        aligned = tuple(mag_map[p] for p in ps.points)
        if any(m <= 0 for m in aligned):
            raise ValueError("squared magnitudes must be strictly positive")
        object.__setattr__(self, "support", ps)
        object.__setattr__(self, "magnitudes", aligned)

    @cached_property
    def log_magnitudes(self) -> tuple[float, ...]:
        """Natural logs of the squared magnitudes, aligned with the support."""
        return tuple(log(float(m)) for m in self.magnitudes)

    def magnitude_of(self, p: Sequence[int]) -> Fraction:
        key = lattice_point(p)
        for q, m in zip(self.support.points, self.magnitudes):
            if q == key:
                return m
        raise KeyError(f"{key} not in support")


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
    semistable: bool
    witness: OnePS | None = None


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


def weight(u: Sequence[int], v: WeightedVector, constraints: Iterable[Sequence[int]] = ()) -> int:
    """Minimum pairing of u against the support of v.

    This is the renormalization exponent making the limit of v along the
    one-parameter subgroup of u exist and stay nonzero.
    """
    require_admissible(u, constraints)
    return min_functional(v.support, u)


def t_semistable(p: Pair) -> Verdict:
    """Decide torus semistability of the pair exactly.

    Semistable iff the weight polytope of v is contained in that of w
    modulo the constraint directions.  Otherwise some support point of v
    escapes, the separating functional of the failed containment LP is
    cleared to a primitive integer covector, and that covector destabilizes:
    its weight on w strictly exceeds its weight on v.
    """
    ctx = p.problem.ctx
    cons = p.problem.constraints
    for a in p.v.support:
        if a in p.w.support:
            continue
        try:
            g = separating_functional(p.w.support, a, ctx)
        except ValueError:
            continue  # a lies in the weight polytope of w
        u = clear_denominators(g)
        if not weight(u, p.w, cons) > weight(u, p.v, cons):
            raise RuntimeError("internal: destabilizer failed its weight check")
        return Verdict(False, u)
    return Verdict(True)


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


def perturb(p: Pair, m: int, q: int | None = None) -> Pair:
    """The degree-m perturbation of the pair.

    The v side becomes the identity block to the q-th tensor power times
    the m-th power of v; the w side the (m+1)-st power of w.  Only hulls
    feed the downstream criteria, so supports are hull-generating sets and
    all magnitudes are set to one.
    """
    if m < 1:
        raise ValueError("perturbation exponent must be >= 1")
    if q is None:
        q = degree_of(p.v, p.problem)
    v_support = minkowski_sum(scale(p.problem.q_polytope, q), scale(p.v.support, m))
    w_support = scale(p.w.support, m + 1)
    return Pair(WeightedVector(v_support), WeightedVector(w_support), p.problem)


def _slope_terms(p: Pair, q: int, u: Sequence[int]) -> tuple[int, int]:
    """(a, b) with futaki_gen(u, perturb(p, m, q)) == a * m + b for every m."""
    cons = p.problem.constraints
    w_u = weight(u, p.w, cons)
    return w_u - weight(u, p.v, cons), w_u - q * min_functional(p.problem.q_polytope, u)


def properness_slope_check(p: Pair, m: int, q: int, u: Sequence[int]) -> bool:
    """Slope form of the properness inequality along u, exact in integers:
    the coercive estimate for the degree-m perturbation amounts to

        (m+1) * weight(u, w)  <=  q * min over the reference polytope + m * weight(u, v).
    """
    a, b = _slope_terms(p, q, u)
    return a * m + b <= 0


def stable(p: Pair, m_max: int) -> StableVerdict:
    """Least perturbation exponent, up to m_max, making the pair semistable.

    A destabilized base short circuits.  Otherwise each certificate normal
    u of the w-polytope asks a * m + b <= 0 with a <= 0 (`_slope_terms`):
    a = 0 < b rules out every m, a < 0 needs m >= b / -a.  The largest
    bound is the least exponent; one containment check confirms it.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    base = t_semistable(p)
    if not base.semistable:
        return StableVerdict.unstable_base(base.witness)
    q = degree_of(p.v, p.problem)
    e = 1
    for u in certificate_normals(p.w.support, p.problem.ctx):
        a, b = _slope_terms(p, q, u)
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
    semistable.
    """
    cons = p.problem.constraints
    return weight(u, p.w, cons) - weight(u, p.v, cons)


def relative_invariant(
    p: Pair, chi: Sequence[int]
) -> tuple[int, dict[LatticePoint, int]]:
    """Monomial certificate of semistability for a chosen v-support character.

    Returns (d, exponents) with the exponents nonnegative integers on
    w-support points, summing to d, whose weighted character sum equals
    d * chi modulo the constraint directions.  The monomial in the
    w-coordinates with those exponents is then a degree-d eigenfunction of
    character d * chi that is nonzero at (v, w) and vanishes identically on
    the v side.
    """
    chi = lattice_point(chi)
    if chi not in p.v.support:
        raise ValueError(f"{chi} is not in the support of v")
    verdict = t_semistable(p)
    if not verdict.semistable:
        raise ValueError("relative invariants exist only for semistable pairs")
    if chi in p.w.support:
        return 1, {chi: 1}  # the one-term combination: a single w-coordinate
    comb = convex_combination(p.w.support, chi, p.problem.ctx)
    if comb is None:  # unreachable once semistable
        raise RuntimeError("internal: containment lost between checks")
    lambdas, _ = comb
    d = 1
    for lam in lambdas:
        d = lcm(d, lam.denominator)
    exponents: dict[LatticePoint, int] = {}
    for point, lam in zip(p.w.support.points, lambdas):
        n = lam * d
        if n:
            exponents[point] = int(n)
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
    if sum(exponents.values()) != d:
        return False
    rank = p.problem.rank
    total = [0] * rank
    for b, n in exponents.items():
        for i in range(rank):
            total[i] += n * b[i]
    residue = [t - d * c for t, c in zip(total, lattice_point(chi))]
    return linalg.in_span(p.problem.constraints, residue)
