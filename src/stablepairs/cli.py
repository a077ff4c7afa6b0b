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
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
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
    weight,
)
from .polytope import PointSet
from .varieties import VarietyDatum, degrees

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_ERROR = 2
EXIT_INTERNAL = 3

# A problem without `Q` builds the cross-polytope of its rank and checks it
# with an LP over 2 * rank points: about 1 s at rank 16, a minute at rank 80.
MAX_RANK = 16


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


def parse_weighted_vector(obj: Any) -> WeightedVector:
    if not isinstance(obj, dict) or not isinstance(obj.get("support"), list):
        raise InputError("vector entries need a 'support' list")
    support = [lattice_point(p) for p in obj["support"]]
    mags = obj.get("magnitudes")
    if mags is None:
        return WeightedVector(support)
    if len(_list(mags, "magnitudes")) != len(support):
        raise InputError("magnitudes must be parallel to the support")
    return WeightedVector(support, [Fraction(str(m)) for m in mags])


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
            rank, constraints, PointSet(_list(q_points, "Q")) if q_points else None
        )
        v = parse_weighted_vector(_field(obj, "v"))
        w = parse_weighted_vector(_field(obj, "w"))
        return Pair(v, w, problem)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(str(exc)) from exc


def serialize_pair(pair: Pair) -> dict:
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


def _verify_witness(pair: Pair, u: Sequence[int]) -> None:
    # Defense in depth: never print a witness that does not check out.
    cons = pair.problem.constraints
    if not is_admissible(u, cons) or not weight(u, pair.w, cons) > weight(u, pair.v, cons):
        raise RuntimeError("internal: emitted witness failed verification")


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout)
    sys.stdout.write("\n")


def cmd_check(args) -> int:
    pair = load_pair(args.problem)
    verdict = t_semistable(pair)
    if verdict.semistable:
        _emit({"status": "semistable"})
        return EXIT_TRUE
    _verify_witness(pair, verdict.witness)
    _emit({"status": "unstable", "witness": list(verdict.witness)})
    return EXIT_FALSE


def cmd_stable(args) -> int:
    pair = load_pair(args.problem)
    verdict = stable(pair, args.max_m)
    if verdict.is_stable:
        _emit({"status": "stable", "exponent": verdict.exponent})
        return EXIT_TRUE
    if verdict.status == StableVerdict.UNSTABLE_BASE:
        _verify_witness(pair, verdict.witness)
        _emit({"status": "unstable", "witness": list(verdict.witness)})
        return EXIT_FALSE
    _emit({"status": "not_stable_up_to", "m_max": verdict.m_max})
    return EXIT_FALSE


def cmd_destabilize(args) -> int:
    pair = load_pair(args.problem)
    verdict = t_semistable(pair)
    if verdict.semistable:
        _emit({"status": "semistable"})
        return EXIT_TRUE
    u = verdict.witness
    _verify_witness(pair, u)
    _emit(
        {
            "status": "unstable",
            "witness": list(u),
            "limit_support_v": [list(p) for p in limits.limit_support(pair.v.support, u)],
            "limit_support_w": [list(p) for p in limits.limit_support(pair.w.support, u)],
        }
    )
    return EXIT_FALSE


def cmd_relinv(args) -> int:
    pair = load_pair(args.problem)
    chi = _parse_covector(args.chi, pair.problem.rank)
    verdict = t_semistable(pair)
    if not verdict.semistable:
        _verify_witness(pair, verdict.witness)
        _emit({"status": "unstable", "witness": list(verdict.witness)})
        return EXIT_FALSE
    d, exponents = relative_invariant(pair, chi)
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
    u = _parse_covector(args.ops, pair.problem.rank)
    if not is_admissible(u, pair.problem.constraints):
        raise InputError(f"covector {u} violates the problem constraints")
    payload: dict[str, Any] = {
        "u": list(u),
        "energy_at_identity": energy.energy_at(pair, [0.0] * pair.problem.rank),
        "futaki_gen": futaki_gen(u, pair),
    }
    if args.at_t is not None:
        if not 0.0 < args.at_t <= 1.0:
            raise InputError("--at-t must lie in (0, 1]")
        payload["energy_at_t"] = energy.energy_along(pair, u, args.at_t)
    if args.slope:
        payload["slope"] = energy.asymptotic_slope(pair, u)
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
    try:
        datum = VarietyDatum(args.n, args.d, Fraction(args.mu), args.N)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablepairs",
        description="Exact (semi)stability of pairs in rational torus representations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_problem(p):
        p.add_argument("problem", help="path to a JSON problem file")
        return p

    with_problem(sub.add_parser("check", help="decide torus semistability")).set_defaults(
        func=cmd_check
    )
    p = with_problem(sub.add_parser("stable", help="search for a stability exponent"))
    p.add_argument("--max-m", type=int, default=32)
    p.set_defaults(func=cmd_stable)
    with_problem(
        sub.add_parser("destabilize", help="destabilizing subgroup and limit supports")
    ).set_defaults(func=cmd_destabilize)
    p = with_problem(sub.add_parser("relinv", help="relative-invariant certificate"))
    p.add_argument("--chi", required=True, help="support character, e.g. '1,0'")
    p.set_defaults(func=cmd_relinv)
    p = with_problem(sub.add_parser("limit", help="one-parameter subgroup with target limit support"))
    p.add_argument("--target", required=True, help="JSON list of points, e.g. '[[1,0]]'")
    p.set_defaults(func=cmd_limit)
    p = with_problem(sub.add_parser("extend", help="equivariant extension criterion"))
    p.add_argument("--target", required=True, help="JSON list of points (the subset kept)")
    p.set_defaults(func=cmd_extend)
    p = with_problem(sub.add_parser("energy", help="pair energy along a subgroup"))
    p.add_argument("--ops", required=True, help="one-parameter subgroup, e.g. '1,-1'")
    p.add_argument("--slope", action="store_true", help="report the asymptotic slope")
    p.add_argument("--at-t", type=float, default=None)
    p.add_argument("--infimum", action="store_true", help="estimate the energy infimum")
    p.set_defaults(func=cmd_energy)
    with_problem(sub.add_parser("futaki", help="stabilizer subtorus and Futaki data")).set_defaults(
        func=cmd_futaki
    )
    p = sub.add_parser("binary", help="semistability of a pair of binary forms")
    p.add_argument("--f", required=True, help="roots of f, e.g. '[0:1]^2 [1:0]' or '1'")
    p.add_argument("--g", required=True, help="roots of g")
    p.add_argument("--oracle", action="store_true", help="cross-check with the torus oracle")
    p.set_defaults(func=cmd_binary)
    p = sub.add_parser("variety", help="resultant/hyperdiscriminant degree report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mu", required=True, help="average scalar curvature, e.g. '1' or '2/3'")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--genus", type=int, default=None, help="validate mu for a curve")
    p.set_defaults(func=cmd_variety)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (InputError, ValueError, OverflowError) as exc:
        _emit({"error": str(exc)})
        return EXIT_ERROR
    except Exception as exc:
        _emit({"error": f"{type(exc).__name__}: {exc}"})
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
