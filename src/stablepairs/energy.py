"""The Kempf-Ness-type energy of a pair along the torus.

For a torus element with log moduli s the energy is

    log sum |w_b|^2 exp(2<s, b>)  -  log sum |v_a|^2 exp(2<s, a>),

the norms being weight-orthonormal, which is the canonical torus-invariant
choice.  The energy equals the log-tan-squared Fubini-Study distance
between the translated pair point and the translated v-only point, grows
along a one-parameter subgroup with slope equal to the generalized Futaki
number, and is bounded below exactly when the pair is semistable.

This is the one floating-point module; the boundedness dichotomy it
touches is decided exactly on the certificate normals of the w-polytope,
and the exact slope form of the properness inequality lives in `pairs`.

`infimum_estimate` probes the energy only along lines s0 + t d.  Per line
each support point a contributes a base log|c_a|^2 + 2<s0, a> and a slope
2<d, a>, so a probe is one call per side of `_log_sum_exp`, the module's
only log-sum-exp, which `energy_at` calls too.  A line search is a
safeguarded Newton iteration on E'; in the first sweep over the basis, 8
ternary steps pick its basin first.  E' and E'' are the differences of the
Gibbs means and variances of the slopes (`_Line.derivatives`), so the
finish needs no energy value.  `energy_along` probes the line along u
through the identity once, and `asymptotic_slope` is half of its E' where
the least pairings weigh e^40 more.
Each direction d takes one exact pass, that of `futaki_gen`, which checks
d admissible exactly, instead of the float check `energy_at` makes on
every torus element: the normals in the scan `stable` shares
(`_scan_normals`), a basis vector or a covector in `_SubgroupLine`, whose
`sides` divide the doubled integer pairings of den d by den, den the common
denominator of d, with one rounding.  Floating-point work goes to the line
searches: a ray probe runs unless a floor of the energy it would compute,
priced in O(1) (`_extents`), is not below the current estimate.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Iterable, Sequence

from .lattice import Scalar
from .linalg import integral
from .pairs import Pair, WeightedVector, _futaki_pairings, _scan_normals

_CONSTRAINT_TOL = 1e-9


def _check_torus_element(p: Pair, s: Sequence[float]) -> tuple[float, ...]:
    coords = tuple(float(x) for x in s)
    if len(coords) != p.problem.rank:
        raise ValueError("torus element has wrong rank")
    if not all(map(math.isfinite, coords)):
        raise ValueError(f"torus element has a non-finite coordinate: {coords}")
    scale = max(1.0, max((abs(x) for x in coords), default=0.0))
    for c in p.problem.constraints:
        if abs(sum(ci * si for ci, si in zip(c, coords))) > _CONSTRAINT_TOL * scale:
            raise ValueError(f"torus element violates constraint {c}")
    return coords


def _log_sum_exp(terms: list[float]) -> float:
    # log sum exp(terms), stabilized against overflow.  Summed left to right,
    # the float additions of CPython 3.11's `sum`, on every Python version.
    m = max(terms)
    total = 0
    for t in terms:
        total += math.exp(t - m)
    return m + math.log(total)


def _log_norm_sq(vec: WeightedVector, s: Sequence[float]) -> float:
    # log sum |coeff|^2 exp(2<s, a>)
    return _log_sum_exp([
        log_mag + 2.0 * sum(map(mul, s, a))
        for a, log_mag in zip(vec.support.points, vec.log_magnitudes)
    ])


# Per side (w, then v), one float per support point.
_Sides = tuple[list[float], list[float]]


def _slopes(den: int, xw: list[int], xv: list[int]) -> _Sides:
    # The exact pairings of den * d, doubled and divided by den in one
    # correctly rounded step.
    return [2 * x / den for x in xw], [2 * x / den for x in xv]


class _Line:
    """The energy along s0 + t d as a function of t, with a Newton finish.

    s0 is the sum of c * d_j over `shift`, given as pairs (c, pairings of
    d_j); d is given by its pairings.  The bases log|c_a|^2 + 2<s0, a> are
    summed once, so a probe is two `_log_sum_exp` calls, one per side, over
    the (base, slope) pairs zipped here, and `newton` reads the derivatives
    off the same pairs.
    """

    __slots__ = ("w", "v", "k0")

    def __init__(self, p: Pair, shift: Iterable[tuple[float, _Sides]], along: _Sides):
        bases = [list(p.w.log_magnitudes), list(p.v.log_magnitudes)]
        for c, sides in shift:
            bases = [[b + c * k for b, k in zip(base, side)] for base, side in zip(bases, sides)]
        (bw, bv), (kw, kv) = bases, along
        self.w, self.v = list(zip(bw, kw)), list(zip(bv, kv))
        self.k0 = min(kw), min(kv)

    def __call__(self, t: float) -> float:
        return (_log_sum_exp([b + t * k for b, k in self.w])
                - _log_sum_exp([b + t * k for b, k in self.v]))

    def derivatives(self, t: float) -> tuple[float, float]:
        """(E'(t), E''(t)): w- minus v-side Gibbs mean and variance (`_moments`)."""
        (mw, vw), (mv, vv) = _moments(self.w, self.k0[0], t), _moments(self.v, self.k0[1], t)
        return mw - mv, vw - vv

    def newton(self, lo: float, hi: float) -> float:
        """The minimizer on [lo, hi], from the midpoint: a zero of E', or an end.

        E' and E'' come from `derivatives`; the sign of E' shrinks the
        bracket.  The Newton step is taken when E'' > 0 and it lands
        strictly inside; otherwise the search goes to the end E' points to if
        E' is not known there yet (the minimum on the bracket may be that
        end), and else bisects.  It ends on a step of at most 1e-10 (1 + |t|),
        or after `_NEWTON_CAP` evaluations.
        """
        t = (lo + hi) / 2
        lo_known = hi_known = False
        for _ in range(_NEWTON_CAP):
            slope, curvature = self.derivatives(t)
            if slope == 0:
                return t
            if slope > 0:
                hi, hi_known = t, True
            else:
                lo, lo_known = t, True
            if curvature > 0 and lo < t - slope / curvature < hi:
                t_next = t - slope / curvature
            elif slope > 0 and not lo_known:
                t_next = lo
            elif slope < 0 and not hi_known:
                t_next = hi
            else:
                t_next = (lo + hi) / 2
            step, t = t_next - t, t_next
            if abs(step) <= _NEWTON_TOL * (1.0 + abs(t)):
                break
        return t


def _moments(terms: list[tuple[float, float]], k0: float, t: float) -> tuple[float, float]:
    """Mean and variance of the slopes k under the Gibbs weights exp(b + t k).

    One pass of max-shifted exponentials, summed left to right, over k - k0,
    k0 the least slope, which is added back to the mean: where the least
    slopes carry all the weight, the mean is k0 exactly.
    """
    xs = [b + t * k for b, k in terms]
    m = max(xs)
    s0 = s1 = s2 = 0.0
    for x, (_, k) in zip(xs, terms):
        e = math.exp(x - m)
        s0 += e
        k -= k0
        e *= k
        s1 += e
        s2 += e * k
    mean = s1 / s0
    return k0 + mean, s2 / s0 - mean * mean


def energy_at(p: Pair, s: Sequence[float]) -> float:
    """Pair energy at the torus element with the given log moduli."""
    coords = _check_torus_element(p, s)
    return _log_norm_sq(p.w, coords) - _log_norm_sq(p.v, coords)


_SLOPE_MARGIN = 40.0  # log of how far the least pairings outweigh the rest


class _SubgroupLine:
    """The energy along the one-parameter subgroup of u, set up once.

    One exact pass, the one of `futaki_gen`, checks u and pairs den u with
    the supports, den the common denominator of u.  `futaki` is read off it:
    the Futaki number of den u, so of u itself for an int covector.  `sides`
    rounds the pairings to floats, and the line through the identity along
    u, which `energy` (`energy_along`) and `slope` (`asymptotic_slope`)
    probe, is built from them on first use, so a pairing beyond the float
    range fails only a request for a float.
    """

    __slots__ = ("futaki", "_p", "_den", "_xs", "_line")

    def __init__(self, p: Pair, u: Sequence[Scalar]):
        den, (num,) = integral([u])
        self.futaki, xw, xv = _futaki_pairings(num, p)
        self._p, self._den, self._xs, self._line = p, den, (xw, xv), None

    def sides(self) -> _Sides:
        """2<u, a> for the support points a of w and of v, rounded once."""
        return _slopes(self._den, *self._xs)

    def _along(self) -> _Line:
        if self._line is None:
            self._line = _Line(self._p, (), self.sides())
        return self._line

    def energy(self, t: float) -> float:
        """The energy at (log t) u, for t in (0, 1]; at t = 1 the identity."""
        if not 0.0 < t <= 1.0:
            raise ValueError("parameter t must lie in (0, 1]")
        return self._along()(math.log(t))

    def slope(self) -> float:
        """Half of E' where the least pairings weigh e^40 more: see
        `asymptotic_slope`."""
        p = self._p
        spread = max(max(side) - min(side) for side in (p.w.log_magnitudes, p.v.log_magnitudes))
        return self._along().derivatives(-(spread + _SLOPE_MARGIN) * self._den / 2)[0] / 2


def energy_along(p: Pair, u: Sequence[int], t: float) -> float:
    """Energy along the one-parameter subgroup of u at parameter t in (0, 1].

    The torus element is s = (log t) u; at t = 1 this is the identity.  It
    is one probe, at log t, of the line through the identity along u.
    """
    return _SubgroupLine(p, u).energy(t)


def asymptotic_slope(p: Pair, u: Sequence[int]) -> float:
    """Slope of the energy along u with respect to log t^2 as t -> 0.

    Half of E' on the line of `energy_along`: the difference of the Gibbs
    means of <u, b> over w and <u, a> over v, which tends to the Futaki
    number as the least pairings take over.  It is read at log t =
    -(spread + 40) / gap: spread is the largest spread of the log
    magnitudes on one side, and distinct slopes differ by at least gap =
    2 / den (den the denominator of u), so each term off the least pairing
    of its side weighs at most e^-40 of one on it, whatever the magnitudes.
    """
    return _SubgroupLine(p, u).slope()


_SWEEPS = 4  # coordinate-descent passes over the quotient basis
_BRACKET = 8.0  # half-width of each line search around the current coefficient
_TERNARY_STEPS = 8  # ternary steps that pick a basin before the first Newton finish
_NEWTON_CAP = 64  # derivative evaluations per Newton finish, at most
_NEWTON_TOL = 1e-10  # relative size of the step that ends a Newton finish
_RAY_TAUS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)  # probe distances along each normal
_FLOOR_TOL = 1e-9  # relative room for rounding in the floor of a ray probe
_RAY_TS = tuple(t for tau in _RAY_TAUS for t in (tau, -tau))  # in the order probed


def infimum_estimate(p: Pair) -> float:
    """Upper estimate of the infimum of the energy over the torus, or -inf.

    The unbounded case is decided exactly: the energy is unbounded below
    iff the pair is torus-unstable, iff some certificate normal of the
    w-polytope destabilizes, `futaki_gen` > 0, in the scan of `stable` (so
    an unstable pair pays for a facet enumeration).  Otherwise the estimate
    starts from the energy at the identity; coordinate descent over the
    quotient basis of the problem, refined by ray probes along the same
    normals, lowers it to a finite upper bound.  Every probe lies on a line s0 + t d whose
    pairings are set up once (see the module docstring), and every
    direction d, a basis vector or a normal, is checked admissible exactly.

    Each of the 4 sweeps searches each basis line in a bracket of
    half-width 8 around the current coefficient c, and `_Line.newton` moves
    to the minimizer in it, where one probe is taken.  In the first sweep 8
    ternary steps (16 probes) narrow the bracket to a width of about 0.62
    around the basin first.  The later sweeps start Newton at c, in the
    basin picked before, so a basis direction costs 17 + 3 probes.
    Ternary steps in the later sweeps would change the basin on about 7
    lines in 10 000 of the benchmark pools: on 7 of their 1 368 pairs of
    seeds 1-9 skipping them moves the estimate by more than 1e-9, up on 5
    (by at most 0.313) and down on 2 (by at most 0.015).

    A ray probe is skipped when a floor of its energy, the largest
    w-exponent minus the largest v-exponent minus log |supp v| and a 1e-9
    relative allowance for rounding, is not below the estimate so far: it
    could not lower it.  The returned float is the one every probe would
    give.  The floor is priced in O(1) (`_floor`) from bounds on the
    largest exponent of each side (`_extents`), and it is never above the
    floor over every term; every probe it does not skip is made.  Each
    normal is paired with both supports once, in integers, in the scan:
    its Futaki number and ray slopes too.
    """
    witness, passes = _scan_normals(p)
    if witness is not None:
        return -math.inf
    rays = [_slopes(1, xw, xv) for _, _, xw, xv in passes]
    rank = p.problem.rank
    best = energy_at(p, [0.0] * rank)
    basis = [_SubgroupLine(p, e).sides() for e in p.problem.ctx.covectors(rank)]
    if not basis:
        return best
    coeffs = [0.0] * len(basis)
    for sweep in range(_SWEEPS):
        for k, along in enumerate(basis):
            shift = [(c, e) for j, (c, e) in enumerate(zip(coeffs, basis)) if j != k]
            energy = _Line(p, shift, along)
            lo, hi = coeffs[k] - _BRACKET, coeffs[k] + _BRACKET
            for _ in range(0 if sweep else _TERNARY_STEPS):  # later sweeps keep the basin
                third = (hi - lo) / 3
                m1, m2 = lo + third, hi - third
                if energy(m1) <= energy(m2):
                    hi = m2
                else:
                    lo = m1
            coeffs[k] = energy.newton(lo, hi)
            best = min(best, energy(coeffs[k]))
    lw, lv = p.w.log_magnitudes, p.v.log_magnitudes
    slack = math.log(len(lv))
    for along in rays:
        (kw, kv), line = along, None
        for t, (w_lo, _, w_size), (_, v_hi, v_size) in zip(
                _RAY_TS, _extents(lw, kw, _RAY_TS), _extents(lv, kv, _RAY_TS)):
            if _floor(w_lo, v_hi, w_size, v_size, slack) < best:
                line = line or _Line(p, (), along)
                best = min(best, line(t))
    return best


def _extents(bases: list[float], slopes: list[float],
             ts: Sequence[float]) -> list[tuple[float, float, float]]:
    """Per t, lo <= m <= hi and size >= |m| for m, the largest b + t k
    over the zipped bases b and slopes k.

    With (B, k) the term of the largest base and (b, K) one whose slope is
    the largest for the sign of t, lo is the larger of B + t k and b + t K,
    two of the terms m is the largest of.  Every term has b <= B and
    t k <= t K, and float products and sums are monotone, so hi = B + t K
    is at least every one of them; size is the larger of hi and -lo.
    """
    big = max(bases)
    k = slopes[bases.index(big)]
    least, most = [(bases[slopes.index(s)], s) for s in (min(slopes), max(slopes))]
    out = []
    for t in ts:
        b, s = most if t > 0 else least
        lo, other, hi = big + t * k, b + t * s, big + t * s
        if other > lo:
            lo = other
        out.append((lo, hi, hi if hi > -lo else -lo))
    return out


def _floor(mw: float, mv: float, w_size: float, v_size: float, slack: float) -> float:
    """mw - mv - slack, less 1e-9 (1 + w_size + v_size) for rounding.

    In floats too the value never rises as mw falls or as mv, w_size or
    v_size rise, so with lo <= m <= hi on each side the w-side lo, the
    v-side hi and sizes at least |mw| and |mv| give a floor no higher than
    the exact one (sizes |mw| and |mv|).
    """
    return mw - mv - slack - _FLOOR_TOL * (1.0 + w_size + v_size)
