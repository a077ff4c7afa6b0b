"""Batch command-line front end.

Problems arrive as JSON files; every subcommand prints a machine-readable
JSON verdict on standard output.  Rationals travel as "p/q" strings so no
precision is lost in transport.  Exit codes: 0 for semistable / stable /
true, 1 for unstable / false (with the witness in the JSON), 2 for input
errors, 3 for internal failures (with the JSON `error`).

Problem file schema:

    {
      "rank": 2,
      "constraints": [[1, 1]],
      "Q": [[1, 0], [0, 1]],
      "v": {"support": [[1, 0]], "magnitudes": ["1"]},
      "w": {"support": [[1, 0], [0, 1]], "magnitudes": ["1", "2/3"]}
    }

`magnitudes` is optional (defaults to all ones) and parallel to `support`.
`rank` is a JSON integer of at most `MAX_RANK`; a larger rank is refused
before any work, since the default reference polytope grows with it.
`stable` and `energy --infimum` enumerate the facets of the w-support (and
`stable` those of `Q`); a hull that could have too many is refused up front
too (`MAX_HULL_WORK`), and so are a `binary --oracle` request whose forms
have a total degree above `MAX_ORACLE_DEGREE`, a `variety` request with
N above `MAX_VARIETY_N`, and a magnitude or `--mu` whose exponent would
give a numerator or denominator of more than `MAX_MAGNITUDE_DIGITS` digits.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import cache
from math import comb
from typing import Any, Sequence

from . import binary_forms, energy, futaki, limits
from .lattice import is_admissible, lattice_point
from .pairs import (
    Pair,
    StabilityProblem,
    StableVerdict,
    WeightedVector,
    check_relative_invariant,
    futaki_gen,
    relative_invariant,
    stable,
    t_semistable,
)
from .polytope import PointSet
from .varieties import VarietyDatum, degrees

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_ERROR = 2
EXIT_INTERNAL = 3

# A problem without `Q` builds the cross-polytope of its rank and checks it
# with an LP of rank + 1 rows over 2 * rank points: about 0.05 s at rank 16
# and 4 s at rank 80 on one core of an Intel Xeon.
MAX_RANK = 16

# A magnitude is an exact rational, and an exponent names a large integer in
# a few bytes: `Fraction("1e1000000")` builds a million-digit numerator in
# about 0.3 s on one core of an Intel Xeon, and "1e10000000" takes about
# 12 s.  A magnitude whose numerator or denominator, as written, would have
# more digits than Python's own limit on integer strings is refused before
# `Fraction` builds it.
MAX_MAGNITUDE_DIGITS = 4300

# `certificate_normals` enumerates facets by double description; its work
# grows with the points n times the facets, and n points in dimension d can
# have f(n, d) ~ n^(d/2) facets (rank 8 with 22 points has 3740).  A hull
# with n * f(n, d) above the cap is refused; the slowest enumeration near
# the cap seen on one core of an Intel Xeon took 0.84 s (36 points of the
# moment curve in rank 5).
MAX_HULL_WORK = 40_000

# `binary --oracle` expands both forms into exact coefficients at every
# critical torus, one per distinct root, so its work grows about like the
# cube of deg f + deg g: at the cap, 32 distinct roots take about 0.23 s on
# one core of an Intel Xeon.  A larger total degree is refused before any
# expansion.
MAX_ORACLE_DEGREE = 32

# `variety` prints two partitions with N + 1 parts each, and N bounds the
# dimension n, which sets how many parts are nonzero.  At the cap the worst
# case (n = 63, a 2147-digit d, the largest whose degrees still print under
# Python's 4300-digit limit) prints 0.55 MB of JSON in about 0.05 s on one
# core of an Intel Xeon.  A larger N is refused before any arithmetic.
MAX_VARIETY_N = 64


class InputError(Exception):
    pass


def _field(obj: dict, name: str) -> Any:
    if name not in obj:
        raise InputError(f"missing field {name!r}")
    return obj[name]


def _list(value: Any, name: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{name!r} must be a list")
    return value


# The decimal forms `Fraction` reads with an exponent (and a few it refuses):
# integer digits, fractional digits, exponent.
_EXPONENT_FORM = re.compile(r"\s*[-+]?([\d_]*)(?:\.([\d_]*))?[eE]([-+]?[\d_]+)\s*")


def _magnitude(m: Any) -> Fraction:
    text = str(m)
    form = _EXPONENT_FORM.fullmatch(text)
    if form:
        whole, frac, exp = (part.replace("_", "") for part in form.groups(""))
        # The value is int(whole + frac) * 10**shift.
        shift = int(exp) - len(frac)
        digits = len((whole + frac).lstrip("0")) + shift if shift >= 0 else 1 - shift
        if digits > MAX_MAGNITUDE_DIGITS:
            raise InputError(
                f"magnitude {text[:32]!r} has an exponent beyond the cap of "
                f"{MAX_MAGNITUDE_DIGITS} digits"
            )
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise InputError(f"magnitude {text[:32]!r} has a zero denominator") from None


def parse_weighted_vector(obj: Any) -> WeightedVector:
    if not isinstance(obj, dict) or not isinstance(obj.get("support"), list):
        raise InputError("vector entries need a 'support' list")
    support = obj["support"]  # checked by WeightedVector, each point once
    mags = obj.get("magnitudes")
    if mags is None:
        return WeightedVector(support)
    if len(_list(mags, "magnitudes")) != len(support):
        raise InputError("magnitudes must be parallel to the support")
    return WeightedVector(support, [_magnitude(m) for m in mags])


def parse_problem(obj: Any) -> Pair:
    if not isinstance(obj, dict):
        raise InputError("a problem must be a JSON object")
    rank = _field(obj, "rank")
    if type(rank) is not int:
        raise InputError(f"'rank' must be an integer, not {json.dumps(rank, default=str)}")
    if rank > MAX_RANK:
        raise InputError(f"rank {rank} is above the cap of {MAX_RANK}")
    try:
        constraints = [lattice_point(c) for c in _list(obj.get("constraints", []), "constraints")]
        q_points = obj.get("Q")
        problem = StabilityProblem(
            rank, constraints, None if q_points is None else PointSet(_list(q_points, "Q"))
        )
        v = parse_weighted_vector(_field(obj, "v"))
        w = parse_weighted_vector(_field(obj, "w"))
        return Pair(v, w, problem)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(str(exc)) from exc


def _max_facets(npoints: int, dim: int) -> int:
    """Most facets a polytope with `npoints` vertices and dimension at most
    `dim` can have: `npoints` up to dimension 2 or for a simplex, else those
    of a cyclic polytope (the upper bound theorem, McMullen 1970)."""
    return max([npoints] + [
        comb(npoints - (d + 1) // 2, d // 2) + comb(npoints - d // 2 - 1, (d + 1) // 2 - 1)
        for d in range(3, min(dim, npoints - 1) + 1)
    ])


def _require_bounded_hull(pair: Pair, name: str, points: PointSet) -> None:
    n = len(points)
    dim = pair.problem.rank - len(pair.problem.constraints)
    if n * _max_facets(n, dim) > MAX_HULL_WORK:
        raise InputError(
            f"the hull of {name} ({n} points, dimension up to {dim}) is above the cap "
            f"of {MAX_HULL_WORK} on points times facets"
        )


def load_pair(path: str) -> Pair:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read problem file: {exc}") from exc
    return parse_problem(data)


def _parse_covector(text: str, rank: int) -> tuple[int, ...]:
    try:
        u = tuple(int(c) for c in text.replace(",", " ").split())
    except ValueError as exc:
        raise InputError(f"cannot parse covector {text!r}") from exc
    if len(u) != rank:
        raise InputError(f"covector {u} does not match rank {rank}")
    return u


def _parse_points(text: str) -> list[tuple[int, ...]]:
    try:
        data = json.loads(text)
        return [lattice_point(p) for p in data]
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise InputError(f"cannot parse point list {text!r}") from exc


def _emit(payload: dict) -> None:
    # Encoded whole before any write: an int past Python's digit limit
    # raises mid-encoding, and no partial line may reach stdout.
    sys.stdout.write(json.dumps(payload) + "\n")


def _emit_unstable(pair: Pair, u: Sequence[int], with_limits: bool = False) -> int:
    """Print the unstable answer with its witness u (and, `with_limits`, the
    limit supports of v and w along u); return exit code 1.

    Defense in depth: u is verified before anything is computed from it or
    printed.  Admissibility first: `futaki_gen` raises ValueError (exit 2)
    on an inadmissible u, and a bad witness is an internal failure (exit 3).
    """
    if not is_admissible(u, pair.problem.constraints) or not futaki_gen(u, pair) > 0:
        raise RuntimeError("internal: emitted witness failed verification")
    payload = {"status": "unstable", "witness": list(u)}
    if with_limits:
        payload["limit_support_v"] = [list(p) for p in limits.limit_support(pair.v.support, u)]
        payload["limit_support_w"] = [list(p) for p in limits.limit_support(pair.w.support, u)]
    _emit(payload)
    return EXIT_FALSE


def cmd_check(args) -> int:
    pair = load_pair(args.problem)
    verdict = t_semistable(pair)
    if verdict.semistable:
        _emit({"status": "semistable"})
        return EXIT_TRUE
    return _emit_unstable(pair, verdict.witness)


def cmd_stable(args) -> int:
    pair = load_pair(args.problem)
    _require_bounded_hull(pair, "w", pair.w.support)
    _require_bounded_hull(pair, "Q", pair.problem.q_polytope)
    verdict = stable(pair, args.max_m)
    if verdict.is_stable:
        _emit({"status": "stable", "exponent": verdict.exponent})
        return EXIT_TRUE
    if verdict.status == StableVerdict.UNSTABLE_BASE:
        return _emit_unstable(pair, verdict.witness)
    _emit({"status": "not_stable_up_to", "m_max": verdict.m_max})
    return EXIT_FALSE


def cmd_destabilize(args) -> int:
    pair = load_pair(args.problem)
    verdict = t_semistable(pair)
    if verdict.semistable:
        _emit({"status": "semistable"})
        return EXIT_TRUE
    return _emit_unstable(pair, verdict.witness, with_limits=True)


def cmd_relinv(args) -> int:
    pair = load_pair(args.problem)
    chi = _parse_covector(args.chi, pair.problem.rank)
    verdict = t_semistable(pair)
    if not verdict.semistable:
        return _emit_unstable(pair, verdict.witness)
    d, exponents = relative_invariant(pair, chi, verdict)
    if not check_relative_invariant(pair, chi, d, exponents):
        raise RuntimeError("internal: relative invariant failed verification")
    _emit(
        {
            "status": "semistable",
            "chi": list(chi),
            "degree": d,
            "exponents": [[list(b), n] for b, n in sorted(exponents.items())],
        }
    )
    return EXIT_TRUE


def cmd_limit(args) -> int:
    pair = load_pair(args.problem)
    target = PointSet(_parse_points(args.target))
    u = limits.find_degeneration(pair.v.support, target, pair.problem.ctx)
    if u is None:
        _emit({"status": "not_a_limit_support"})
        return EXIT_FALSE
    _emit({"status": "ok", "u": list(u)})
    return EXIT_TRUE


def cmd_extend(args) -> int:
    pair = load_pair(args.problem)
    target = PointSet(_parse_points(args.target))
    ok = limits.extension_criterion(pair.v.support, target, pair.problem.ctx)
    _emit({"extends": ok})
    return EXIT_TRUE if ok else EXIT_FALSE


def cmd_energy(args) -> int:
    pair = load_pair(args.problem)
    if args.infimum:
        _require_bounded_hull(pair, "w", pair.w.support)
    u = _parse_covector(args.ops, pair.problem.rank)
    try:
        line = energy._SubgroupLine(pair, u)  # the one check of u, and its one pairing
    except ValueError:
        raise InputError(f"covector {u} violates the problem constraints") from None
    payload: dict[str, Any] = {
        "u": list(u),
        "energy_at_identity": energy.energy_at(pair, [0.0] * pair.problem.rank),
        "futaki_gen": line.futaki,
    }
    if args.at_t is not None:
        if not 0.0 < args.at_t <= 1.0:
            raise InputError("--at-t must lie in (0, 1]")
        payload["energy_at_t"] = line.energy(args.at_t)
    if args.slope:
        payload["slope"] = line.slope()
    if args.infimum:
        est = energy.infimum_estimate(pair)
        payload["infimum_estimate"] = "-inf" if est == float("-inf") else est
    _emit(payload)
    return EXIT_TRUE


def cmd_futaki(args) -> int:
    pair = load_pair(args.problem)
    subtorus = futaki.stabilizer_subtorus(pair)
    _emit(
        {
            "stabilizer_rank": subtorus.rank,
            "stabilizer_basis": [list(u) for u in subtorus.basis],
            "classical_on_basis": [futaki.futaki_classical(pair, u) for u in subtorus.basis],
            "affine_span": "equal" if futaki.affine_span_test(pair) else "disjoint",
        }
    )
    return EXIT_TRUE


def cmd_binary(args) -> int:
    try:
        f = binary_forms.BinaryForm.parse(args.f)
        g = binary_forms.BinaryForm.parse(args.g)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if args.oracle and f.degree + g.degree > MAX_ORACLE_DEGREE:
        raise InputError(
            f"total degree {f.degree + g.degree} is above the cap of {MAX_ORACLE_DEGREE} "
            "for --oracle"
        )
    verdict = binary_forms.semistable_bf(f, g)
    if args.oracle:
        oracle = binary_forms.torus_oracle_bf(f, g)
        if oracle.semistable != verdict.semistable:
            raise RuntimeError("internal: torus oracle disagrees with the root criterion")
    if verdict.semistable:
        _emit({"status": "semistable", "e": f.degree, "d": g.degree})
        return EXIT_TRUE
    payload = {"status": "unstable", "e": f.degree, "d": g.degree, "reason": verdict.reason}
    if verdict.violating_point is not None:
        payload["violating_point"] = list(verdict.violating_point)
    _emit(payload)
    return EXIT_FALSE


def cmd_variety(args) -> int:
    if args.N > MAX_VARIETY_N:
        raise InputError(f"N = {args.N} is above the cap of {MAX_VARIETY_N}")
    try:
        datum = VarietyDatum(args.n, args.d, _magnitude(args.mu), args.N)
        report = degrees(datum, genus=args.genus)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _emit(
        {
            "deg_resultant": report.deg_resultant,
            "deg_hyperdiscriminant": report.deg_hyperdiscriminant,
            "common_degree": report.common_degree,
            "lambda_partition": list(report.lambda_partition),
            "mu_partition": list(report.mu_partition),
        }
    )
    return EXIT_TRUE


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablepairs",
        description="Exact (semi)stability of pairs in rational torus representations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_problem(p):
        p.add_argument("problem", help="path to a JSON problem file")
        return p

    with_problem(sub.add_parser("check", help="decide torus semistability"))
    p = with_problem(sub.add_parser("stable", help="search for a stability exponent"))
    p.add_argument("--max-m", type=int, default=32)
    with_problem(sub.add_parser("destabilize", help="destabilizing subgroup and limit supports"))
    p = with_problem(sub.add_parser("relinv", help="relative-invariant certificate"))
    p.add_argument("--chi", required=True, help="support character, e.g. '1,0'")
    p = with_problem(sub.add_parser("limit", help="one-parameter subgroup with target limit support"))
    p.add_argument("--target", required=True, help="JSON list of points, e.g. '[[1,0]]'")
    p = with_problem(sub.add_parser("extend", help="equivariant extension criterion"))
    p.add_argument("--target", required=True, help="JSON list of points (the subset kept)")
    p = with_problem(sub.add_parser("energy", help="pair energy along a subgroup"))
    p.add_argument("--ops", required=True, help="one-parameter subgroup, e.g. '1,-1'")
    p.add_argument("--slope", action="store_true", help="report the asymptotic slope")
    p.add_argument("--at-t", type=float, default=None)
    p.add_argument("--infimum", action="store_true", help="estimate the energy infimum")
    with_problem(sub.add_parser("futaki", help="stabilizer subtorus and Futaki data"))
    p = sub.add_parser("binary", help="semistability of a pair of binary forms")
    p.add_argument("--f", required=True, help="roots of f, e.g. '[0:1]^2 [1:0]' or '1'")
    p.add_argument("--g", required=True, help="roots of g")
    p.add_argument("--oracle", action="store_true", help="cross-check with the torus oracle")
    p = sub.add_parser("variety", help="resultant/hyperdiscriminant degree report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mu", required=True, help="average scalar curvature, e.g. '1' or '2/3'")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--genus", type=int, default=None, help="validate mu for a curve")
    parser.commands = sub.choices  # subcommand name -> its parser
    return parser


def _parse_request(argv: Sequence[str] | None = None) -> argparse.Namespace:
    """The namespace of one request, from one argparse pass.

    A request whose first argument names a subcommand is parsed by that
    subcommand's parser alone, as argparse's subparser action parses it,
    and leftover arguments are refused as `parse_args` refuses them.  Help,
    no arguments and an unknown command go through the top-level parser,
    which writes their usage and errors.
    """
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse_request(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else 0
    try:
        # Looked up per call, so a rebound `cmd_*` attribute is the one run.
        return globals()["cmd_" + args.command](args)
    except (InputError, ValueError, OverflowError) as exc:
        _emit({"error": str(exc)})
        return EXIT_ERROR
    except Exception as exc:
        _emit({"error": f"{type(exc).__name__}: {exc}"})
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
