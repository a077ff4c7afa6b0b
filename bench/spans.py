"""Span tracing of the stablepairs layers, installed from outside the package.

Modules import each other's functions by name (`from .linprog import
solve_lp`), so patching one module attribute misses most calls.  `Tracer`
therefore replaces a traced function at every binding that holds it: in
every loaded `stablepairs` module, including the package namespace.  Each
wrapper records a span (name, duration, time covered by child spans);
spans are aggregated in memory per operation and per run.

Spans are recorded only while an operation is open (`begin_op` ..
`end_op`), so set-up and verification code calling the same functions
leaves no trace.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

from workloads import CLI_COMMANDS

# (module, attribute) -> span name.  An attribute "Class.method" wraps a
# method on the class.
SPANS = {
    ("linprog", "solve_lp"): "linprog.solve_lp",
    ("polytope", "contains_point"): "polytope.contains_point",
    ("polytope", "convex_combination"): "polytope.convex_combination",
    ("polytope", "separating_functional"): "polytope.separating_functional",
    ("polytope", "hull_contains"): "polytope.hull_contains",
    ("polytope", "interior_contains"): "polytope.interior_contains",
    ("polytope", "certificate_normals"): "polytope.certificate_normals",
    ("polytope", "minkowski_sum"): "polytope.minkowski_sum",
    ("pairs", "StabilityProblem.__init__"): "pairs.problem_init",
    ("pairs", "t_semistable"): "pairs.t_semistable",
    ("pairs", "degree_of"): "pairs.degree_of",
    ("pairs", "perturb"): "pairs.perturb",
    ("pairs", "stable"): "pairs.stable",
    ("pairs", "relative_invariant"): "pairs.relative_invariant",
    ("limits", "find_degeneration"): "limits.find_degeneration",
    ("limits", "extension_criterion"): "limits.extension_criterion",
    ("limits", "limit_support"): "limits.limit_support",
    ("energy", "energy_at"): "energy.energy_at",
    ("energy", "infimum_estimate"): "energy.infimum_estimate",
    ("energy", "asymptotic_slope"): "energy.asymptotic_slope",
    ("futaki", "stabilizer_subtorus"): "futaki.stabilizer_subtorus",
    ("futaki", "futaki_classical"): "futaki.futaki_classical",
    ("futaki", "affine_span_test"): "futaki.affine_span_test",
    ("binary_forms", "semistable_bf"): "binary_forms.semistable_bf",
    ("binary_forms", "torus_oracle_bf"): "binary_forms.torus_oracle_bf",
    ("varieties", "degrees"): "varieties.degrees",
    ("cli", "load_pair"): "cli.parse",
    ("linalg", "rref"): "linalg.rref",
    ("linalg", "matrix_rank"): "linalg.matrix_rank",
    ("linalg", "nullspace"): "linalg.nullspace",
    ("linalg", "solve"): "linalg.solve",
    ("linalg", "in_span"): "linalg.in_span",
    ("linalg", "left_inverse"): "linalg.left_inverse",
}
SPANS.update({("cli", f"cmd_{c}"): f"cli.{c}" for c in CLI_COMMANDS})

# Outermost calls of these count as one pairs-level verdict.
VERDICT_SPANS = frozenset(
    ("pairs.t_semistable", "pairs.degree_of", "pairs.stable", "pairs.relative_invariant")
)


def _bits(values) -> int:
    best = 0
    for v in values or ():
        v = Fraction(v)
        best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


class Tracer:
    """Per-span aggregates for one run; see the module docstring."""

    def __init__(self):
        self._installed: list[tuple[object, str, object]] = []
        self._open = False
        self._stack: list[list] = []  # [name, child seconds]
        self.spans: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.op_lps: list[int] = []  # LPs per operation, in order
        self.op_seconds: list[float] = []  # root span duration per operation
        self.op_self_sum: list[float] = []  # sum of self times per operation
        self.lps = self.lp_infeasible = self.lp_cells = self.lp_bits_max = 0
        self.polytope_lps = self.polytope_duplicate_lps = 0
        self.verdicts = self.verdict_lps = 0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every function in SPANS at every binding in the package."""
        mods = {
            name: mod for name, mod in sys.modules.items()
            if name == "stablepairs" or name.startswith("stablepairs.")
        }
        for (modname, attr), span in SPANS.items():
            owner = mods["stablepairs." + modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._bind(cls, meth, self._wrap(span, original))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(span, original)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, key, wrapped)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._installed):
            setattr(target, key, original)
        self._installed.clear()

    def _bind(self, target, key, wrapped) -> None:
        self._installed.append((target, key, getattr(target, key)))
        setattr(target, key, wrapped)

    def _wrap(self, name: str, fn):
        tracer = self
        is_lp = name == "linprog.solve_lp"
        is_verdict = name in VERDICT_SPANS

        def span(*args, **kwargs):
            if not tracer._open:
                return fn(*args, **kwargs)
            stack = tracer._stack
            frame = [name, 0.0]
            outer_verdict = is_verdict and not any(
                f[0] in VERDICT_SPANS for f in stack
            )
            lps_before = tracer.lps
            if is_lp:
                tracer._record_lp_input(args, kwargs)
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                stack[-1][1] += elapsed
                agg = tracer.spans.setdefault(name, [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[1]
            if is_lp:
                tracer._record_lp_result(result)
            if outer_verdict:
                tracer.verdicts += 1
                tracer.verdict_lps += tracer.lps - lps_before
            return result

        span.__wrapped__ = fn
        return span

    # -- LP accounting ----------------------------------------------------

    def _record_lp_input(self, args, kwargs) -> None:
        call = dict(zip(("objective", "rows", "rhs", "nonneg", "maximize"), args))
        call.update(kwargs)
        rows = call["rows"]
        self.lps += 1
        self.lp_cells += len(rows) * len(call["objective"])
        if any(f[0].startswith("polytope.") for f in self._stack):
            key = (
                tuple(Fraction(c) for c in call["objective"]),
                tuple(tuple(Fraction(c) for c in r) for r in rows),
                tuple(Fraction(c) for c in call["rhs"]),
                tuple(call["nonneg"]),
                call.get("maximize", True),
            )
            self.polytope_lps += 1
            if key in self._op_lp_keys:
                self.polytope_duplicate_lps += 1
            else:
                self._op_lp_keys.add(key)

    def _record_lp_result(self, res) -> None:
        if res.status == "infeasible":
            self.lp_infeasible += 1
        bits = max(
            _bits(res.x), _bits(res.farkas),
            _bits([res.objective] if res.objective is not None else ()),
        )
        self.lp_bits_max = max(self.lp_bits_max, bits)

    # -- operations -------------------------------------------------------

    def begin_op(self) -> None:
        self._open = True
        self._op_lp_keys: set = set()
        self._op_lps_start = self.lps
        self._op_self_start = sum(a[2] for a in self.spans.values())
        self._stack = [["op", 0.0]]
        self._op_start = time.perf_counter()

    def end_op(self) -> None:
        elapsed = time.perf_counter() - self._op_start
        root = self._stack.pop()
        if self._stack:
            raise RuntimeError("span stack not empty at the end of an operation")
        self._open = False
        agg = self.spans.setdefault("op", [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += elapsed
        agg[2] += elapsed - root[1]
        self.op_lps.append(self.lps - self._op_lps_start)
        self.op_seconds.append(elapsed)
        self.op_self_sum.append(
            sum(a[2] for a in self.spans.values()) - self._op_self_start
        )

    def metrics(self, ops: int, ops_per_s: float, scale: float) -> dict:
        """Per-layer metrics of the run: name -> (value, unit), per operation.

        `ops_per_s` is the traced run's throughput, reported as is; times
        are multiplied by `scale` (the run's speed factor, see speed.py).
        """
        spans = self.spans

        def calls(name):
            return spans.get(name, [0])[0] / ops

        def self_ms(*names):
            return sum(spans.get(n, [0, 0.0, 0.0])[2] for n in names) * scale * 1e3 / ops

        def share(part, whole):
            return part / whole if whole else 0.0

        out = {
            "trace.ops_per_s": (ops_per_s, "1/s"),
            "untraced.self_ms": (self_ms("op"), "ms/op"),
            "linprog.solve_lp.calls": (calls("linprog.solve_lp"), "count/op"),
            "linprog.solve_lp.self_ms": (self_ms("linprog.solve_lp"), "ms/op"),
            "linprog.infeasible_frac": (share(self.lp_infeasible, self.lps), "frac"),
            "linprog.lp_cells_mean": (share(self.lp_cells, self.lps), "cells"),
            "linprog.result_bits_max": (self.lp_bits_max, "bits"),
            "polytope.containment_lps": (self.polytope_lps / ops, "count/op"),
            "polytope.duplicate_lp_frac": (
                share(self.polytope_duplicate_lps, self.polytope_lps), "frac"),
            "pairs.verdicts": (self.verdicts / ops, "count/op"),
            "pairs.lps_per_verdict": (share(self.verdict_lps, self.verdicts), "count"),
            "futaki.self_ms": (self_ms(*(n for n in spans if n.startswith("futaki."))), "ms/op"),
            "linalg.calls": (sum(v[0] for n, v in spans.items() if n.startswith("linalg.")) / ops,
                             "count/op"),
            "linalg.self_ms": (self_ms(*(n for n in spans if n.startswith("linalg."))), "ms/op"),
            "cli.parse.self_ms": (self_ms("cli.parse"), "ms/op"),
        }
        for f in ("contains_point", "convex_combination", "separating_functional",
                  "hull_contains", "interior_contains", "certificate_normals", "minkowski_sum"):
            out[f"polytope.{f}.calls"] = (calls(f"polytope.{f}"), "count/op")
            out[f"polytope.{f}.self_ms"] = (self_ms(f"polytope.{f}"), "ms/op")
        for f in ("problem_init", "t_semistable", "degree_of", "perturb", "stable",
                  "relative_invariant"):
            out[f"pairs.{f}.calls"] = (calls(f"pairs.{f}"), "count/op")
            out[f"pairs.{f}.self_ms"] = (self_ms(f"pairs.{f}"), "ms/op")
        for f in ("energy_at", "infimum_estimate", "asymptotic_slope"):
            out[f"energy.{f}.calls"] = (calls(f"energy.{f}"), "count/op")
            out[f"energy.{f}.self_ms"] = (self_ms(f"energy.{f}"), "ms/op")
        for name in ("limits.find_degeneration", "limits.extension_criterion",
                     "limits.limit_support", "binary_forms.semistable_bf",
                     "binary_forms.torus_oracle_bf", "varieties.degrees"):
            out[f"{name}.self_ms"] = (self_ms(name), "ms/op")
        for cmd in CLI_COMMANDS:
            n, total = spans.get(f"cli.{cmd}", [0, 0.0])[:2]
            out[f"cli.{cmd}.ms"] = (total * scale * 1e3 / n if n else 0.0, "ms")
        return out
