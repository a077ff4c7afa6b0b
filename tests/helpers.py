"""Shared test oracles and random-instance generators.

The oracles here are deliberately independent of the package internals:
they carry their own Gaussian elimination and decide containment by
enumerating candidate half-spaces from point subsets, never by LP or by
double description.  They are the ground truth the LP-based answers and
the closed forms read off certificate normals are measured against.
`face_limit_support` decides limit supports both ways from the
subset-walk normals.  `kempf_ness_distance` is a second float formula
for the energy.
`facet_weight_semistable` is the one package-side criterion path here,
and `weight` the minimum pairing the destabilizer checks read.
`impossible_degree_check` (the gap-one degrees of binary forms),
`properness_slope_check` (the slope form of the properness inequality),
`variety_pair` (a variety's normalized pair at the weight-data level) and
`mabuchi_weight_inequality` (its coercivity inequality) are the closed
forms the energy, binary-forms and varieties tests state against the
package's verdicts.  `magnitude_of` reads one squared magnitude of a
weighted vector, and `serialize_pair` writes a pair as the CLI's problem
JSON, the inverse the CLI tests hold `cli.parse_problem` to.
`reference_solve_lp` is a plainer simplex, the differential oracle for
`linprog.solve_lp`, `reference_line` the energy probe through a
generic log-sum-exp, the bit-identity oracle for `energy._Line`, and
`reference_infimum_estimate` the search with every ray probe made, the
float-identity oracle for `energy.infimum_estimate`, and
`ternary_infimum_estimate` its earlier 40-step search, frozen, which the
estimate should never end above.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from stablepairs import (
    Pair,
    PointSet,
    StabilityProblem,
    WeightedVector,
    certificate_normals,
    cross_polytope,
    energy_at,
    futaki_gen,
    scale,
)
from stablepairs.linprog import INFEASIBLE, OPTIMAL, LPResult


# ---------------------------------------------------------------------------
# A plainer two-phase simplex: reduced costs rebuilt every iteration, phase 1
# run to optimality, then the artificial drive-out and phase 2 whatever the
# objective.  It makes the pivots `linprog.solve_lp` makes, so on a zero
# objective the two agree exactly: the differential oracle for the solver.

UNBOUNDED = "unbounded"
_ZERO = Fraction(0)
_ONE = Fraction(1)


def reference_solve_lp(
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

    def pivot(r: int, j: int) -> None:
        piv = tableau[r][j]
        tableau[r] = [x / piv for x in tableau[r]]
        b[r] /= piv
        prow = tableau[r]
        for i in range(len(tableau)):
            if i != r and tableau[i][j] != 0:
                f = tableau[i][j]
                tableau[i] = [x - f * y for x, y in zip(tableau[i], prow)]
                b[i] -= f * b[r]
        basis[r] = j

    def run(cost: list[Fraction], ncols: int) -> str:
        while True:
            cb = [cost[v] for v in basis]
            entering = -1
            for j in range(ncols):
                rc = cost[j] - sum(cb[i] * tableau[i][j] for i in range(len(tableau)))
                if rc > 0:
                    entering = j
                    break
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

    # Phase 1: drive the artificial variables to zero.
    cost1 = [_ZERO] * nsplit + [Fraction(-1)] * m
    run(cost1, nsplit + m)
    infeas = -sum(cost1[basis[i]] * b[i] for i in range(len(tableau)))
    if infeas > 0:
        # Simplex multipliers off the artificial columns form the certificate.
        cb = [cost1[v] for v in basis]
        y = []
        for i in range(m):
            pi_i = sum(cb[r] * tableau[r][nsplit + i] for r in range(len(tableau)))
            y.append(-flips[i] * pi_i)
        return LPResult(INFEASIBLE, farkas=y)

    # Drive any artificial still in the basis out, dropping redundant rows.
    keep = []
    for r in range(len(tableau)):
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

    # Phase 2.
    cost2 = [c_signed[j] * s for j, s in colmap]
    if run(cost2, nsplit) == UNBOUNDED:
        return LPResult(UNBOUNDED)

    xsplit = [_ZERO] * nsplit
    for r, v in enumerate(basis):
        xsplit[v] = b[r]
    x = [_ZERO] * n
    for idx, (j, s) in enumerate(colmap):
        x[j] += s * xsplit[idx]
    value = sum(ci * xi for ci, xi in zip(c_orig, x))
    return LPResult(OPTIMAL, x=x, objective=value)


# ---------------------------------------------------------------------------
# The energy along a line through two calls of a generic log-sum-exp per
# probe: the bit-identity oracle for `energy._Line`, whose probes call
# `energy._log_sum_exp`, once per side, in the same order.  The sum is an
# explicit left-to-right loop: on CPython 3.11 it makes the float additions
# of `sum`, and it keeps them on versions whose `sum` compensates.

def _log_sum_exp(terms: list[float]) -> float:
    # log sum exp(terms), stabilized against overflow.
    m = max(terms)
    total = 0
    for t in terms:
        total += math.exp(t - m)
    return m + math.log(total)


# Per side (w, then v), one float per support point.
_Sides = tuple[list[float], list[float]]


def _o_terms(p: Pair, shift: Iterable[tuple[float, _Sides]], along: _Sides):
    # (base, slope) per support point and side along s0 + t d: the bases
    # log|c_a|^2 + 2<s0, a> summed once, s0 the sum of c * d_j over `shift`.
    bases = [list(p.w.log_magnitudes), list(p.v.log_magnitudes)]
    for c, sides in shift:
        bases = [[b + c * k for b, k in zip(base, side)] for base, side in zip(bases, sides)]
    return [list(zip(base, side)) for base, side in zip(bases, along)]


def reference_line(p: Pair, shift: Iterable[tuple[float, _Sides]], along: _Sides):
    """The energy along s0 + t d as a function of t.

    s0 is the sum of c * d_j over `shift`, given as pairs (c, pairings of
    d_j); d is given by its pairings.  The bases log|c_a|^2 + 2<s0, a> are
    summed once, so a probe costs one log-sum-exp per side.
    """
    w, v = _o_terms(p, shift, along)

    def energy(t: float) -> float:
        return (_log_sum_exp([b + t * k for b, k in w])
                - _log_sum_exp([b + t * k for b, k in v]))

    return energy


def _o_moments(terms, t: float) -> tuple[float, float]:
    # Mean and variance of the slopes under the weights exp(b + t k), the
    # exponentials shifted by their largest exponent and summed in order,
    # over the slopes less the least one, which is added back to the mean.
    k0 = min(k for _, k in terms)
    xs = [b + t * k for b, k in terms]
    m = max(xs)
    s0 = s1 = s2 = 0.0
    for x, (_, k) in zip(xs, terms):
        e = math.exp(x - m)
        s0 += e
        s1 += e * (k - k0)
        s2 += e * (k - k0) * (k - k0)
    mean = s1 / s0
    return k0 + mean, s2 / s0 - mean * mean


def reference_newton(p: Pair, shift, along: _Sides, lo: float, hi: float) -> float:
    """The Newton finish of a line search.  From the midpoint of [lo, hi],
    the bracket is kept by the sign of E', the difference of the Gibbs
    means of the slopes.  The next point is the Newton step when E'' (the
    difference of the variances) is positive and the step lands strictly
    inside, else the end E' points to while E' is unknown there, else the
    midpoint.  It ends on a step of at most 1e-10 (1 + |t|), or after 64
    evaluations."""
    w, v = _o_terms(p, shift, along)
    t = (lo + hi) / 2
    lo_known = hi_known = False  # E' evaluated at the end
    for _ in range(64):
        (mw, vw), (mv, vv) = _o_moments(w, t), _o_moments(v, t)
        slope, curvature = mw - mv, vw - vv
        if slope == 0:
            return t
        if slope > 0:
            hi, hi_known = t, True
        else:
            lo, lo_known = t, True
        if curvature > 0 and lo < t - slope / curvature < hi:
            nxt = t - slope / curvature
        elif slope > 0 and not lo_known:
            nxt = lo
        elif slope < 0 and not hi_known:
            nxt = hi
        else:
            nxt = (lo + hi) / 2
        step, t = nxt - t, nxt
        if abs(step) <= 1e-10 * (1.0 + abs(t)):
            break
    return t


def _o_pairings(p: Pair, d) -> _Sides:
    # 2<d, a> per support point, each a Fraction rounded once to float.
    return tuple(
        [float(2 * sum(Fraction(x) * c for x, c in zip(d, a))) for a in vec.support.points]
        for vec in (p.w, p.v)
    )


def _rays(p: Pair, normals, best: float) -> float:
    # Both signs of six distances along every certificate normal.
    for u in normals:
        energy = reference_line(p, (), _o_pairings(p, u))
        for tau in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
            for sign in (1.0, -1.0):
                best = min(best, energy(sign * tau))
    return best


def reference_infimum_estimate(p: Pair) -> float:
    """The search of `energy.infimum_estimate` with every ray probe made:
    4 coordinate-descent sweeps over the quotient basis, each line searched
    in a bracket of half-width 8 around its coefficient and finished by
    `reference_newton`, then both signs of six distances along every
    certificate normal, each probe through `reference_line`.  8 ternary
    steps narrow the bracket first in sweep 1 only.  The float-identity
    oracle for the estimate, whose ray probes are pruned."""
    normals = certificate_normals(p.w.support, p.problem.ctx)
    if any(futaki_gen(u, p) > 0 for u in normals):
        return -math.inf
    rank = p.problem.rank
    best = energy_at(p, [0.0] * rank)
    basis = [_o_pairings(p, e) for e in p.problem.ctx.covectors(rank)]
    if not basis:
        return best
    coeffs = [0.0] * len(basis)
    for sweep in range(4):
        for k, along in enumerate(basis):
            shift = [(c, e) for j, (c, e) in enumerate(zip(coeffs, basis)) if j != k]
            energy = reference_line(p, shift, along)
            lo, hi = coeffs[k] - 8.0, coeffs[k] + 8.0
            if sweep == 0:
                for _ in range(8):
                    m1 = lo + (hi - lo) / 3
                    m2 = hi - (hi - lo) / 3
                    if energy(m1) <= energy(m2):
                        hi = m2
                    else:
                        lo = m1
            coeffs[k] = reference_newton(p, shift, along, lo, hi)
            best = min(best, energy(coeffs[k]))
    return _rays(p, normals, best)


def ternary_infimum_estimate(p: Pair) -> float:
    """The estimate's earlier search, kept frozen: each line searched by 40
    ternary steps, to within 1.4e-6, with no Newton finish.  The search
    `infimum_estimate` makes should reach no higher on any pair."""
    normals = certificate_normals(p.w.support, p.problem.ctx)
    if any(futaki_gen(u, p) > 0 for u in normals):
        return -math.inf
    rank = p.problem.rank
    best = energy_at(p, [0.0] * rank)
    basis = [_o_pairings(p, e) for e in p.problem.ctx.covectors(rank)]
    if not basis:
        return best
    coeffs = [0.0] * len(basis)
    for _ in range(4):
        for k, along in enumerate(basis):
            shift = [(c, e) for j, (c, e) in enumerate(zip(coeffs, basis)) if j != k]
            energy = reference_line(p, shift, along)
            lo, hi = coeffs[k] - 8.0, coeffs[k] + 8.0
            for _ in range(40):
                m1 = lo + (hi - lo) / 3
                m2 = hi - (hi - lo) / 3
                if energy(m1) <= energy(m2):
                    hi = m2
                else:
                    lo = m1
            coeffs[k] = (lo + hi) / 2
            best = min(best, energy(coeffs[k]))
    return _rays(p, normals, best)


# ---------------------------------------------------------------------------
# Self-contained exact linear algebra (kept separate from stablepairs.linalg).

def _o_rref(rows):
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        hit = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                hit = i
                break
        if hit is None:
            continue
        m[r], m[hit] = m[hit], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def _o_nullspace(rows, ncols):
    red, pivots = _o_rref(rows)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(tuple(vec))
    return basis


def _o_solve(rows, rhs):
    if not rows:
        return () if all(x == 0 for x in rhs) else None
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = _o_rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return tuple(x)


def _o_in_span(vectors, target):
    if not vectors:
        return all(x == 0 for x in target)
    cols = [[v[i] for v in vectors] for i in range(len(target))]
    return _o_solve(cols, list(target)) is not None


def _o_dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def weight(u, v: WeightedVector, constraints=()) -> int:
    """Minimum pairing of u against the support of v: the renormalization
    exponent making the limit of v along the one-parameter subgroup of u
    exist and stay nonzero.  Raises ValueError on a u of the wrong length
    or one that does not annihilate every constraint."""
    if len(u) != v.support.dim or any(_o_dot(c, u) for c in constraints):
        raise ValueError(f"inadmissible one-parameter subgroup {tuple(u)}")
    return min(_o_dot(u, a) for a in v.support)


# ---------------------------------------------------------------------------
# Brute-force half-space oracle for hull containment modulo directions.

def brute_hull_contains(A, B, directions=()):
    """conv(B) subset of conv(A) + span(directions), by half-space enumeration.

    Candidate inward normals come from point subsets of A spanning
    hyperplanes inside the affine hull of A; the affine hull itself is
    checked by exact solves.  Exponential and proudly so: this is the
    small-scale ground truth.
    """
    A = [tuple(p) for p in A]
    B = [tuple(p) for p in B]
    if not B:
        return True
    n = len(A[0])
    funcs = _o_nullspace(list(directions), n)
    if not funcs:
        return True
    PA = [tuple(_o_dot(f, p) for f in funcs) for p in A]
    PB = [tuple(_o_dot(f, p) for f in funcs) for p in B]
    a0 = PA[0]
    offsets = [_sub(p, a0) for p in PA[1:]]
    for b in PB:
        if not _o_in_span(offsets, _sub(b, a0)):
            return False
    # Maximal independent subset of the offsets spans the hull directions.
    basis = []
    for off in offsets:
        if not _o_in_span(basis, off):
            basis.append(off)
    kp = len(basis)
    if kp == 0:
        return True  # A is one point modulo the directions; B matched it above
    cols = [[v[i] for v in basis] for i in range(len(a0))]
    coords_a = [_o_solve(cols, list(_sub(p, a0))) for p in PA]
    coords_b = [_o_solve(cols, list(_sub(b, a0))) for b in PB]
    for subset in itertools.combinations(range(len(coords_a)), kp):
        base = coords_a[subset[0]]
        offs = [_sub(coords_a[s], base) for s in subset[1:]]
        normals = _o_nullspace(offs, kp)
        if len(normals) != 1:
            continue
        h = normals[0]
        vals = [_o_dot(h, p) for p in coords_a]
        v0 = _o_dot(h, base)
        if all(v >= v0 for v in vals):
            pass
        elif all(v <= v0 for v in vals):
            h = tuple(-c for c in h)
            v0 = -v0
        else:
            continue
        if min(_o_dot(h, b) for b in coords_b) < v0:
            return False
    return True


def _o_scale(points, k):
    return [tuple(k * c for c in p) for p in points]


def scan_degree(V, Q, directions=()):
    """Least k >= 1 with conv(V) inside k conv(Q) modulo the directions,
    by scanning k = 1, 2, ... with the half-space oracle."""
    k = 1
    while not brute_hull_contains(_o_scale(Q, k), V, directions):
        k += 1
    return k


def scan_stable(p, m_max):
    """`stable` by scanning m = 1, ..., m_max with the half-space oracle.

    Returns (status, exponent).  The degree-m perturbation is semistable
    iff q conv(Q) + m conv(V) lies in (m+1) conv(W) modulo the
    constraints, q being the scanned module degree of V.
    """
    cons = p.problem.constraints
    V, W = p.v.support.points, p.w.support.points
    if not brute_hull_contains(W, V, cons):
        return "unstable_base", None
    Q = p.problem.q_polytope.points
    q = scan_degree(V, Q, cons)
    for m in range(1, m_max + 1):
        sums = {tuple(q * x + m * y for x, y in zip(a, b)) for a in Q for b in V}
        if brute_hull_contains(_o_scale(W, m + 1), sums, cons):
            return "stable", m
    return "not_stable_up_to", None


def facet_weight_semistable(p: Pair) -> bool:
    """Criterion path through the package: the generalized Futaki number
    must be nonpositive on every certificate normal of the w-polytope."""
    normals = certificate_normals(p.w.support, p.problem.ctx)
    return all(futaki_gen(u, p) <= 0 for u in normals)


def impossible_degree_check(e: int, d: int) -> bool:
    """True when no pair of binary forms of degrees (e, d) can be
    semistable, i.e. e = d - 1.

    Summing the root-order bound over the zeros of g forces
    d <= e + d * (d - e) / 2, impossible exactly in this gap-one case.
    """
    return e == d - 1


def properness_slope_check(p: Pair, m: int, q: int, u) -> bool:
    """Slope form of the properness inequality along u, exact in integers:
    the coercive estimate for the degree-m perturbation amounts to

        (m+1) * min <u, W>  <=  q * min <u, Q> + m * min <u, V>

    over the w-support W, the reference polytope Q and the v-support V.
    """
    cons = p.problem.constraints
    q_min = min(_o_dot(u, a) for a in p.problem.q_polytope)
    return (m + 1) * weight(u, p.w, cons) <= q * q_min + m * weight(u, p.v, cons)


def variety_pair(r_data: WeightedVector, delta_data: WeightedVector, report, problem) -> Pair:
    """The normalized pair at the weight-data level.

    Raising a vector to a tensor power scales its support, so the v side is
    the resultant support scaled by the hyperdiscriminant degree and the w
    side the other way around.
    """
    v_support = scale(r_data.support, report.deg_hyperdiscriminant)
    w_support = scale(delta_data.support, report.deg_resultant)
    return Pair(WeightedVector(v_support), WeightedVector(w_support), problem)


def mabuchi_weight_inequality(r_data, delta_data, report, m, deg_e, u, problem) -> bool:
    """Exact weight form of the coercivity inequality along u.

    With W the normalized hyperdiscriminant power and V the normalized
    resultant power,

        (m+1) (w_u(W) - w_u(V))  <=  deg_e * w_u(identity) - w_u(V),

    where w_u(identity) = min_Q(u): `properness_slope_check` of the
    normalized pair (`variety_pair`) with q = deg_e.  Holding for every
    certificate normal is the same as semistability of the matching
    perturbed pair.
    """
    return properness_slope_check(variety_pair(r_data, delta_data, report, problem), m, deg_e, u)


def _o_log_norm_sq(vec, s):
    # log sum |c_a|^2 exp(2<s, a>), stabilized against overflow.
    terms = [
        math.log(float(m)) + 2.0 * sum(si * ai for si, ai in zip(s, a))
        for a, m in zip(vec.support.points, vec.magnitudes)
    ]
    top = max(terms)
    return top + math.log(sum(math.exp(t - top) for t in terms))


def kempf_ness_distance(p: Pair, s) -> float:
    """log tan^2 of the Fubini-Study distance between the translated pair
    point and the translated v-only point: a second float formula for
    `energy_at`.

    Computed through the spherical distance formula: cos d is the norm of
    the translated v over the norm of the translated pair.  The arccos/tan
    route is float-conditioned, so the agreement with `energy_at` degrades
    once |energy| grows past roughly 35.
    """
    s = [float(x) for x in s]
    ratio = math.exp(_o_log_norm_sq(p.w, s) - _o_log_norm_sq(p.v, s))  # ||w||^2 / ||v||^2
    d = math.acos(1.0 / math.sqrt(1.0 + ratio))
    return math.log(math.tan(d) ** 2)


def _o_left_inverse(rows):
    """T with T W^t = I for W with independent rows, via the normal equations."""
    k = len(rows[0])
    gram = [[_o_dot(a, b) for b in rows] for a in rows]
    cols = [_o_solve(gram, [r[t] for r in rows]) for t in range(k)]
    return [[cols[t][i] for t in range(k)] for i in range(len(rows))]


def _o_primitive(g):
    mult = 1
    for c in g:
        mult = lcm(mult, Fraction(c).denominator)
    ints = [int(Fraction(c) * mult) for c in g]
    g0 = 0
    for c in ints:
        g0 = gcd(g0, c)
    return tuple(c // g0 for c in ints)


def subset_walk_normals(A, ctx):
    """`certificate_normals` by walking every point subset of hull size.

    Same covectors, found the exponential way: each affinely independent
    subset spanning a supporting hyperplane of the hull-coordinate image of
    A yields a facet, lifted back through the hull map and cleared to a
    primitive integer covector, next to the +/- affine-hull enforcers.
    """
    pts = list(A.points)
    dim = len(pts[0])
    fbasis = _o_nullspace(list(ctx.mod_directions), dim)
    k = len(fbasis)
    if k == 0:
        return ()
    phi = [tuple(_o_dot(f, p) for f in fbasis) for p in pts]
    p0 = phi[0]
    wrows, _ = _o_rref([_sub(q, p0) for q in phi[1:]])
    kp = len(wrows)
    raw = []
    for g in _o_nullspace(wrows, k):
        raw.append(g)
        raw.append(tuple(-c for c in g))
    if kp > 0:
        T = _o_left_inverse(wrows)
        psi = [tuple(_o_dot(T[r], _sub(q, p0)) for r in range(kp)) for q in phi]
        for subset in itertools.combinations(range(len(psi)), kp):
            base = psi[subset[0]]
            normals = _o_nullspace([_sub(psi[s], base) for s in subset[1:]], kp)
            if len(normals) != 1:
                continue  # subset does not span a hyperplane
            h = normals[0]
            vals = [_o_dot(h, q) for q in psi]
            v0 = _o_dot(h, base)
            if all(v <= v0 for v in vals):
                h = tuple(-c for c in h)
            elif not all(v >= v0 for v in vals):
                continue  # not a supporting hyperplane
            raw.append(tuple(_o_dot(h, [T[r][i] for r in range(kp)]) for i in range(k)))
    out = set()
    for u_k in raw:
        ambient = [_o_dot(u_k, [f[i] for f in fbasis]) for i in range(dim)]
        if any(c != 0 for c in ambient):
            out.add(_o_primitive(ambient))
    return tuple(sorted(out))


def box_search_degeneration(A, B, directions=(), box=6):
    """Exhaustive integer search for a covector constant on B, larger on A - B."""
    A = [tuple(p) for p in A]
    Bset = {tuple(p) for p in B}
    rest = [p for p in A if p not in Bset]
    n = len(A[0])
    for u in itertools.product(range(-box, box + 1), repeat=n):
        if any(_o_dot(d, u) != 0 for d in directions):
            continue
        values = {_o_dot(u, b) for b in Bset}
        if len(values) != 1:
            continue
        c = values.pop()
        if all(_o_dot(u, a) > c for a in rest):
            return u
    return None


def face_limit_support(A, B, ctx):
    """Whether B is a limit support of A, decided on both sides by faces.

    The sum of every `subset_walk_normals` covector whose argmin over A
    contains B is minimized exactly on A intersected with the smallest
    face containing B (the whole of A if no facet contains B).  Every
    admissible covector constant on B has an argmin face containing that
    one, so B is a limit support exactly when the two are equal.
    """
    pts = list(A.points)
    Bset = set(B.points)
    total = [0] * len(pts[0])
    for u in subset_walk_normals(A, ctx):
        values = [_o_dot(u, p) for p in pts]
        low = min(values)
        if all(v == low for p, v in zip(pts, values) if p in Bset):
            total = [t + c for t, c in zip(total, u)]
    values = [_o_dot(total, p) for p in pts]
    return {p for p, v in zip(pts, values) if v == min(values)} == Bset


# ---------------------------------------------------------------------------
# Random instances.

ROOT_POOL = [
    (0, 1), (1, 0), (1, 1), (-1, 1), (2, 1), (1, 2), (-1, 2), (-2, 1),
    (3, 1), (1, 3), (3, 2), (-3, 2), (5, 2), (2, 3),
]


def magnitude_of(wv: WeightedVector, p) -> Fraction:
    """The squared magnitude of the support point p of wv."""
    key = tuple(p)
    for q, m in zip(wv.support.points, wv.magnitudes):
        if q == key:
            return m
    raise KeyError(f"{key} not in support")


def serialize_pair(pair: Pair) -> dict:
    """The pair as the CLI's problem JSON: rank, constraints, Q, v and w,
    each vector its support and its magnitudes as strings."""
    def vec(wv: WeightedVector) -> dict:
        return {
            "support": [list(p) for p in wv.support.points],
            "magnitudes": [str(m) for m in wv.magnitudes],
        }

    return {
        "rank": pair.problem.rank,
        "constraints": [list(c) for c in pair.problem.constraints],
        "Q": [list(p) for p in pair.problem.q_polytope.points],
        "v": vec(pair.v),
        "w": vec(pair.w),
    }


def random_problem(rng: random.Random, rank: int) -> StabilityProblem:
    constraints = [(1,) * rank] if rank >= 2 and rng.random() < 0.5 else []
    return StabilityProblem(rank, constraints, cross_polytope(rank))


def random_support(rng: random.Random, rank: int, max_points=8, lo=-5, hi=5):
    npts = rng.randint(1, max_points)
    pts = {tuple(rng.randint(lo, hi) for _ in range(rank)) for _ in range(npts)}
    return PointSet(pts)


def random_magnitudes(rng: random.Random, support: PointSet):
    return {p: Fraction(rng.randint(1, 16), rng.randint(1, 4)) for p in support}


def random_pair(
    rng: random.Random,
    rank: int | None = None,
    max_points=8,
    lo=-5,
    hi=5,
    weighted=False,
) -> Pair:
    if rank is None:
        rank = rng.randint(1, 4)
    problem = random_problem(rng, rank)
    supports = [random_support(rng, rank, max_points, lo, hi) for _ in range(2)]
    if weighted:
        vecs = [WeightedVector(s, random_magnitudes(rng, s)) for s in supports]
    else:
        vecs = [WeightedVector(s) for s in supports]
    return Pair(vecs[0], vecs[1], problem)


def random_binary_form(rng: random.Random, degree: int):
    from stablepairs import BinaryForm

    roots = {}
    left = degree
    while left > 0:
        point = rng.choice(ROOT_POOL)
        mult = rng.randint(1, left)
        roots[point] = roots.get(point, 0) + mult
        left -= mult
    return BinaryForm(roots)
