"""The Kempf-Ness-type energy of a pair along the torus.

For a torus element with log moduli s the energy is

    log sum |w_b|^2 exp(2<s, b>)  -  log sum |v_a|^2 exp(2<s, a>),

the norms being weight-orthonormal, which is the canonical torus-invariant
choice.  The energy equals the log-tan-squared Fubini-Study distance
between the translated pair point and the translated v-only point, grows
along a one-parameter subgroup with slope equal to the generalized Futaki
number, and is bounded below exactly when the pair is semistable.

This is the one floating-point module; the verdict it touches, the
boundedness dichotomy, is delegated to the exact `t_semistable`, and the
exact slope form of the properness inequality lives in `pairs`.

`infimum_estimate` probes the energy only along lines s0 + t d.  Per line
each support point a contributes a base log|c_a|^2 + 2<s0, a> and a slope
2<d, a>, so a probe is one log-sum-exp per side.  The pairings with each
direction d are exact (integers or `Fraction`s) and rounded to float once;
each direction is checked admissible once, exactly, instead of the float
check `energy_at` makes on every torus element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .lattice import Scalar, dot, require_admissible
from . import linalg
from .pairs import Pair, WeightedVector, t_semistable
from .polytope import certificate_normals

_CONSTRAINT_TOL = 1e-9


@dataclass(frozen=True)
class TorusElement:
    """Log moduli s_i of a diagonal torus element (t_i = e^{s_i})."""

    log_moduli: tuple[float, ...]

    def __init__(self, log_moduli: Iterable[float]):
        object.__setattr__(self, "log_moduli", tuple(float(s) for s in log_moduli))


def _coords(s: TorusElement | Sequence[float]) -> tuple[float, ...]:
    if isinstance(s, TorusElement):
        return s.log_moduli
    return tuple(float(x) for x in s)


def _check_torus_element(p: Pair, s: Sequence[float]) -> tuple[float, ...]:
    coords = _coords(s)
    if len(coords) != p.problem.rank:
        raise ValueError("torus element has wrong rank")
    scale = max(1.0, max((abs(x) for x in coords), default=0.0))
    for c in p.problem.constraints:
        if abs(sum(ci * si for ci, si in zip(c, coords))) > _CONSTRAINT_TOL * scale:
            raise ValueError(f"torus element violates constraint {c}")
    return coords


def _log_sum_exp(terms: list[float]) -> float:
    # log sum exp(terms), stabilized against overflow.
    m = max(terms)
    return m + math.log(sum(map(math.exp, [t - m for t in terms])))


def _log_norm_sq(vec: WeightedVector, s: Sequence[float]) -> float:
    # log sum |coeff|^2 exp(2<s, a>)
    return _log_sum_exp([
        log_mag + 2.0 * sum(si * ai for si, ai in zip(s, a))
        for a, log_mag in zip(vec.support.points, vec.log_magnitudes)
    ])


# Per side (w, then v), one float per support point.
_Sides = tuple[list[float], list[float]]


def _pairings(p: Pair, d: Sequence[Scalar]) -> _Sides:
    """2<d, a> for the support points a of w and of v, exact, then rounded once.

    The pairings are integer ones of den * d, divided by den in one correctly
    rounded step.  This is where a direction is checked: exactly, against
    the constraints.
    """
    den = math.lcm(*(x.denominator for x in d))
    num = [x.numerator * (den // x.denominator) for x in d]
    require_admissible(num, p.problem.constraints)
    return tuple(
        [2 * dot(num, a) / den for a in vec.support.points] for vec in (p.w, p.v)
    )


def _line(p: Pair, shift: Iterable[tuple[float, _Sides]], along: _Sides):
    """The energy along s0 + t d as a function of t.

    s0 is the sum of c * d_j over `shift`, given as pairs (c, pairings of
    d_j); d is given by its pairings.  The bases log|c_a|^2 + 2<s0, a> are
    summed once, so a probe costs one log-sum-exp per side.
    """
    bases = [list(p.w.log_magnitudes), list(p.v.log_magnitudes)]
    for c, sides in shift:
        bases = [[b + c * k for b, k in zip(base, side)] for base, side in zip(bases, sides)]
    (bw, bv), (kw, kv) = bases, along

    def energy(t: float) -> float:
        return (_log_sum_exp([b + t * k for b, k in zip(bw, kw)])
                - _log_sum_exp([b + t * k for b, k in zip(bv, kv)]))

    return energy


def energy_at(p: Pair, s: TorusElement | Sequence[float]) -> float:
    """Pair energy at the torus element with the given log moduli."""
    coords = _check_torus_element(p, s)
    return _log_norm_sq(p.w, coords) - _log_norm_sq(p.v, coords)


def energy_along(p: Pair, u: Sequence[int], t: float) -> float:
    """Energy along the one-parameter subgroup of u at parameter t in (0, 1].

    The torus element is s = (log t) u; at t = 1 this is the identity.
    """
    require_admissible(u, p.problem.constraints)
    if not 0.0 < t <= 1.0:
        raise ValueError("parameter t must lie in (0, 1]")
    lt = math.log(t)
    return energy_at(p, [lt * ui for ui in u])


_SLOPE_SAMPLES = (1e-4, 1e-6, 1e-8)


def asymptotic_slope(p: Pair, u: Sequence[int]) -> float:
    """Slope of the energy along u with respect to log t^2 as t -> 0.

    Least-squares through samples at t = 1e-4, 1e-6, 1e-8; matches the
    generalized Futaki number to well under 1e-6 for moderate weights and
    magnitudes, since subleading terms decay like powers of t^2.
    """
    xs = [math.log(t * t) for t in _SLOPE_SAMPLES]
    ys = [energy_along(p, u, t) for t in _SLOPE_SAMPLES]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    num = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    den = sum((x - xbar) ** 2 for x in xs)
    return num / den


def kempf_ness_distance(p: Pair, s: TorusElement | Sequence[float]) -> float:
    """log tan^2 of the Fubini-Study distance between the translated pair
    point and the translated v-only point.

    Computed through the spherical distance formula: cos d is the norm of
    the translated v over the norm of the translated pair.  Agrees with
    `energy_at` pointwise; the arccos/tan route is float-conditioned, so
    the agreement degrades once |energy| grows past roughly 35.
    """
    coords = _check_torus_element(p, s)
    log_nv = _log_norm_sq(p.v, coords)
    log_nw = _log_norm_sq(p.w, coords)
    ratio = math.exp(log_nw - log_nv)  # ||sigma w||^2 / ||sigma v||^2
    d = math.acos(1.0 / math.sqrt(1.0 + ratio))
    return math.log(math.tan(d) ** 2)


def infimum_estimate(
    p: Pair,
    *,
    sweeps: int = 4,
    bracket: float = 8.0,
    ray_reach: float = 8.0,
) -> float:
    """Upper estimate of the infimum of the energy over the torus, or -inf.

    The unbounded case is decided exactly: the energy is unbounded below
    iff the pair is torus-unstable.  Otherwise the estimate starts from the
    energy at the identity; coordinate descent over a basis of the
    admissible log-moduli subspace, refined by ray probes along the
    certificate normals of the w-polytope, lowers it to a finite upper
    bound.  Every probe lies on a line s0 + t d whose pairings are set up
    once (see the module docstring), and every direction d, a basis vector
    or a normal, is checked admissible exactly.
    """
    if not t_semistable(p).semistable:
        return -math.inf
    rank = p.problem.rank
    best = energy_at(p, [0.0] * rank)
    basis = [_pairings(p, e) for e in linalg.nullspace(p.problem.constraints, rank)]
    if not basis:
        return best
    coeffs = [0.0] * len(basis)
    for _ in range(sweeps):
        for k, along in enumerate(basis):
            shift = [(c, e) for j, (c, e) in enumerate(zip(coeffs, basis)) if j != k]
            energy = _line(p, shift, along)
            lo, hi = coeffs[k] - bracket, coeffs[k] + bracket
            for _ in range(40):
                m1 = lo + (hi - lo) / 3
                m2 = hi - (hi - lo) / 3
                if energy(m1) <= energy(m2):
                    hi = m2
                else:
                    lo = m1
            coeffs[k] = (lo + hi) / 2
            best = min(best, energy(coeffs[k]))
    for u in certificate_normals(p.w.support, p.problem.ctx):
        energy = _line(p, (), _pairings(p, u))
        for tau in (0.25, 0.5, 1.0, 2.0, 4.0, ray_reach):
            for sign in (1.0, -1.0):
                best = min(best, energy(sign * tau))
    return best
