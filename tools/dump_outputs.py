"""Dump the output of every benchmark workload operation, one repr per line.

    python3 tools/dump_outputs.py OUT

Runs one pass over the seeded pools of `bench/workloads.py` (imported, never
changed) against the package under `src/` of this checkout, and writes the
`repr` of each operation's output to OUT: `verdicts`, `cli_mix` and `energy`
for seeds 1-3, with `certificate_normals` of each `energy` pair, and
`exponent` for seed 1.  Verdicts, certificates, CLI stdout and exit codes,
and float reprs of slopes and estimates all appear, and so do the convex
weights of each `verdicts` verdict (`Verdict.weights`, which its `repr`
leaves out).  Each `verdicts`, `cli_mix` and `exponent` operation also
gets one line with the `repr` of every `LPResult` it posed, in call order
(read by wrapping `stablepairs.polytope.solve_lp`, the one caller of the
simplex), so the LP layer's answers are compared too.  Two checkouts that
compute the same outputs give equal files:

    python3 tools/dump_outputs.py before.txt   # in the old checkout
    python3 tools/dump_outputs.py after.txt    # in the new one
    cmp before.txt after.txt

and where floats may differ, `python3 tools/diff_outputs.py before.txt
after.txt` compares them by value and everything else exactly.

The file depends on this tool as well as on `src/`, so a "before" file
must come from this version of the tool run against the old `src/`: copy
the tool into the old checkout first.
"""

from __future__ import annotations

import os
import random
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import stablepairs as sp  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUNS = [(name, seed) for name in ("verdicts", "cli_mix", "energy") for seed in (1, 2, 3)]
RUNS.append(("exponent", 1))
LP_RUNS = ("verdicts", "cli_mix", "exponent")


def dump(out) -> int:
    lines = 0
    posed = []
    solve_lp = sp.polytope.solve_lp

    def recording(*args):
        res = solve_lp(*args)
        posed.append(res)
        return res

    sp.polytope.solve_lp = recording
    try:
        for name, seed in RUNS:
            lines += _dump_run(out, name, seed, posed)
    finally:
        sp.polytope.solve_lp = solve_lp
    return lines


def _dump_run(out, name: str, seed: int, posed: list) -> int:
    lines = 0
    workload = WORKLOADS[name]
    with tempfile.TemporaryDirectory() as workdir:
        for batch in workload.setup(random.Random(seed), workdir):
            for item in batch:
                posed.clear()
                result = workload.run(item)
                out.write(f"{name} {seed} {result!r}\n")
                lines += 1
                if name in LP_RUNS:
                    out.write(f"{name} {seed} lps {posed!r}\n")
                    lines += 1
                if name == "verdicts":
                    out.write(f"{name} {seed} weights {result[0].weights!r}\n")
                    lines += 1
                if name == "energy":
                    p = item[0]
                    normals = sp.certificate_normals(p.w.support, p.problem.ctx)
                    out.write(f"{name} {seed} normals {normals!r}\n")
                    lines += 1
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.exit("usage: dump_outputs.py OUT")
    with open(argv[0], "w") as out:
        lines = dump(out)
    print(f"{lines} lines written to {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
