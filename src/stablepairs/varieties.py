"""Degree bookkeeping for the resultant / hyperdiscriminant pair of a
projective variety.

For an n-dimensional degree-d subvariety of projective N-space with
average scalar curvature mu, the Cayley-Chow form has degree d(n+1) and
the hyperdiscriminant degree n(n+1)d - d*mu; the normalized pair raises
each to the other's degree, giving a common degree r whose partitions
locate the two irreducible modules.  Computing the actual forms from
defining ideals is out of scope; this module works at the level of
degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lattice import Scalar


@dataclass(frozen=True)
class VarietyDatum:
    """Numerical data of an embedded variety: dimension, degree, curvature, ambient."""

    n: int
    d: int
    mu: Fraction
    N: int

    def __init__(self, n: int, d: int, mu: Scalar, N: int):
        mu = Fraction(mu)
        if n < 1:
            raise ValueError("variety dimension must be >= 1")
        if d < 2:
            raise ValueError("variety degree must be >= 2")
        if N <= n:
            raise ValueError("ambient dimension must exceed the variety dimension")
        if n * (n + 1) * d - d * mu <= 0:
            raise ValueError("hyperdiscriminant degree would not be positive")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "N", N)


@dataclass(frozen=True)
class DegreeReport:
    deg_resultant: int       # d (n+1)
    deg_hyperdiscriminant: int  # n (n+1) d - d mu
    common_degree: int       # product of the two
    lambda_partition: tuple[int, ...]
    mu_partition: tuple[int, ...]


def plane_curve_mu(d: int, genus: int) -> Fraction:
    """Average scalar curvature of a degree-d curve of the given genus."""
    return Fraction(2 - 2 * genus, d)


def degrees(vd: VarietyDatum, genus: int | None = None) -> DegreeReport:
    """Degree report for the normalized resultant/hyperdiscriminant pair.

    The hyperdiscriminant degree must come out a positive integer, and the
    common degree must be divisible by both n and n+1 (so the partitions
    are genuine); violations flag an inconsistent curvature input.  For
    curves an optional genus cross-checks mu against (2 - 2g) / d.
    """
    n, d, mu, N = vd.n, vd.d, vd.mu, vd.N
    if genus is not None:
        if n != 1:
            raise ValueError("genus validation applies to curves only")
        expected = plane_curve_mu(d, genus)
        if mu != expected:
            raise ValueError(
                f"mu={mu} inconsistent with genus {genus}: expected {expected}"
            )
    delta_frac = n * (n + 1) * d - d * mu
    if delta_frac.denominator != 1:
        raise ValueError(f"hyperdiscriminant degree {delta_frac} is not an integer")
    deg_delta = int(delta_frac)  # positive: `VarietyDatum` refuses any other
    deg_r = d * (n + 1)
    r = deg_r * deg_delta
    if r % (n + 1) != 0 or r % n != 0:
        raise ValueError(
            f"common degree {r} not divisible by {n} and {n + 1}: inconsistent mu"
        )
    lam = (r // (n + 1),) * (n + 1) + (0,) * (N - n)
    mu_part = (r // n,) * n + (0,) * (N + 1 - n)
    return DegreeReport(deg_r, deg_delta, r, lam, mu_part)
