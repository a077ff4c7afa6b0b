"""Pairs of binary forms under the special linear group of rank one.

A form of degree d is stored by its multiset of rational projective roots,
so root orders are exact multiset lookups.  The pair (f, g) with
deg f = e <= deg g = d is semistable iff at every point of the projective
line the root order of g exceeds that of f by at most (d - e) / 2; with
e > d no pair is semistable.  An independent oracle re-derives the verdict
by conjugating finitely many maximal tori to the diagonal one, expanding
the forms into exact coefficients and running the general weight-polytope
test in the rank-one lattice.

Only rational roots are representable; forms with irrational root fields
are out of reach of this module by construction.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .lattice import clear_denominators
from .pairs import Pair, StabilityProblem, WeightedVector, t_semistable

RootPoint = tuple[int, int]  # primitive [p : q]; [1 : 0] is the point at infinity

INFINITY: RootPoint = (1, 0)
_RANK1_PROBLEM = StabilityProblem.free(1, [(-1,), (1,)])


def normalize_root(p, q) -> RootPoint:
    """Primitive, sign-normalized representative of [p : q].

    This is where root coordinates are checked: they are ints or
    `Fraction`s, and a float, `bool` or `str` raises `ValueError`.
    Rational inputs are cleared (`clear_denominators`); the representative
    has q > 0, or p > 0 when q = 0.
    """
    if any(isinstance(c, bool) or not isinstance(c, (int, Fraction)) for c in (p, q)):
        raise ValueError(f"root {(p, q)!r} has an inexact coordinate")
    if p == 0 and q == 0:
        raise ValueError("[0 : 0] is not a projective point")
    pi, qi = clear_denominators((p, q))
    if qi < 0 or (qi == 0 and pi < 0):
        pi, qi = -pi, -qi
    return (pi, qi)


@dataclass(frozen=True)
class BinaryForm:
    """A nonzero binary form, stored by roots.

    `roots` maps primitive projective points to multiplicities; the degree
    is their sum.  A form is known up to a nonzero factor, which no verdict
    reads: it is taken to be 1.  Multiplicities are ints, and a float,
    `bool` or `str` raises `ValueError`; every root, of multiplicity zero
    too, goes through `normalize_root`, which checks its coordinates.
    """

    degree: int
    roots: tuple[tuple[RootPoint, int], ...]

    def __init__(self, roots: Mapping[Sequence, int] | Iterable[tuple[Sequence, int]] = ()):
        items = roots.items() if isinstance(roots, Mapping) else roots
        acc: dict[RootPoint, int] = {}
        for point, mult in items:
            if type(mult) is not int:
                raise ValueError(f"root multiplicity {mult!r} is not an int")
            if mult < 0:
                raise ValueError("negative root multiplicity")
            key = normalize_root(*point)
            if mult:
                acc[key] = acc.get(key, 0) + mult
        object.__setattr__(self, "roots", tuple(sorted(acc.items())))
        object.__setattr__(self, "degree", sum(acc.values()))

    @classmethod
    def constant(cls) -> "BinaryForm":
        return cls()

    @classmethod
    def parse(cls, text: str) -> "BinaryForm":
        """Parse '[p:q]^m' factors separated by whitespace; '1' is the constant."""
        text = text.strip()
        if text in ("1", ""):
            return cls.constant()
        token = re.compile(r"\[\s*(-?\d+)\s*:\s*(-?\d+)\s*\](?:\^(\d+))?")
        pos = 0
        factors = []
        for match in token.finditer(text):
            if text[pos:match.start()].strip():
                raise ValueError(f"unparsable form fragment {text[pos:match.start()]!r}")
            p, q, mult = match.groups()
            factors.append(((int(p), int(q)), int(mult or 1)))
            pos = match.end()
        if text[pos:].strip() or not factors:
            raise ValueError(f"unparsable form {text!r}")
        return cls(factors)

    def __str__(self) -> str:
        if not self.roots:
            return "1"
        parts = []
        for (p, q), m in self.roots:
            parts.append(f"[{p}:{q}]" + (f"^{m}" if m > 1 else ""))
        return " ".join(parts)

    def ord_at(self, point: Sequence) -> int:
        key = normalize_root(*point)
        return dict(self.roots).get(key, 0)

    def root_points(self) -> tuple[RootPoint, ...]:
        return tuple(p for p, _ in self.roots)

    def coefficients(self) -> list[int]:
        """Integer coefficients c_i of x^i y^(degree - i) of the product of
        the root factors; the root [p : q] contributes the linear factor
        q x - p y."""
        coeffs = [1]
        for (p, q), mult in self.roots:
            for _ in range(mult):
                new = [0] * (len(coeffs) + 1)
                for i, c in enumerate(coeffs):
                    new[i + 1] += q * c
                    new[i] -= p * c
                coeffs = new
        return coeffs

    def diagonal_support(self) -> list[tuple[int]]:
        """Weights of the diagonal torus on the nonzero coefficients.

        x carries weight +1 and y weight -1, so x^i y^(d-i) sits at 2i - d.
        """
        d = self.degree
        return [(2 * i - d,) for i, c in enumerate(self.coefficients()) if c]


@dataclass(frozen=True)
class FormPairVerdict:
    semistable: bool
    violating_point: RootPoint | None = None
    reason: str | None = None  # "degree" | "root-order" | "torus"


def semistable_bf(f: BinaryForm, g: BinaryForm) -> FormPairVerdict:
    """Root-order criterion for semistability of the pair (f, g).

    Semistable iff deg f <= deg g and, at every projective point, the root
    order of g minus that of f is at most (deg g - deg f) / 2.  Points
    outside both root sets satisfy the bound automatically once the degree
    condition holds, so only the roots need checking.
    """
    e, d = f.degree, g.degree
    if e > d:
        return FormPairVerdict(False, reason="degree")
    bound = Fraction(d - e, 2)
    for point in sorted(set(f.root_points()) | set(g.root_points())):
        if g.ord_at(point) - f.ord_at(point) > bound:
            return FormPairVerdict(False, violating_point=point, reason="root-order")
    return FormPairVerdict(True)


def mobius_act(matrix: Sequence[Sequence[int]], f: BinaryForm) -> BinaryForm:
    """Projective change of coordinates acting on the roots.

    The matrix acts on root points directly (the inverse substitution on
    the variables); representatives are re-primitivized and the degree is
    preserved.  Requires a nonsingular integer matrix.
    """
    (a, b), (c, d) = matrix
    if a * d - b * c == 0:
        raise ValueError("singular coordinate change")
    moved = []
    for (p, q), mult in f.roots:
        moved.append(((a * p + b * q, c * p + d * q), mult))
    return BinaryForm(moved)


def _matrix_sending_to_infinity(point: RootPoint) -> tuple[tuple[int, int], tuple[int, int]]:
    """A determinant-one integer matrix sending the point to [1 : 0]."""
    p, q = point
    # Extended gcd on the primitive pair: r p + s q = 1.
    old_r, r = p, q
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return ((old_s, old_t), (-q, p))


def critical_points(f: BinaryForm, g: BinaryForm) -> list[RootPoint]:
    """Conjugation targets whose tori decide semistability of (f, g).

    The roots of both forms, both coordinate points, and one point that is
    a root of neither.  The root-free point matters: it is the torus whose
    fixed points see the bare degree condition, which every root torus can
    miss when all coordinate points are roots of high order.
    """
    pts = set(f.root_points()) | set(g.root_points()) | {INFINITY, (0, 1)}
    k = 0
    while normalize_root(k, 1) in pts:
        k += 1
    pts.add(normalize_root(k, 1))
    return sorted(pts)


def _diagonal_verdict(f: BinaryForm, g: BinaryForm) -> bool:
    pair = Pair(
        WeightedVector(f.diagonal_support()),
        WeightedVector(g.diagonal_support()),
        _RANK1_PROBLEM,
    )
    return t_semistable(pair).semistable


def torus_oracle_bf(f: BinaryForm, g: BinaryForm) -> FormPairVerdict:
    """Semistability by quantifying over the finitely many critical tori.

    Each critical point is conjugated to [1 : 0] by an integer coordinate
    change; both forms are expanded into exact coefficients and their
    diagonal weight supports are compared by the general rank-one
    containment test.  Semistable iff every conjugate passes.
    """
    for point in critical_points(f, g):
        matrix = _matrix_sending_to_infinity(point)
        if not _diagonal_verdict(mobius_act(matrix, f), mobius_act(matrix, g)):
            return FormPairVerdict(False, violating_point=point, reason="torus")
    return FormPairVerdict(True)
