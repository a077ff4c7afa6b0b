"""Count the work of one pass over each benchmark pool and write WORK.json.

    python3 tools/work_ledger.py                      # all seeds, to WORK.json
    python3 tools/work_ledger.py --seeds 1 --out x.json

For `verdicts`, `cli_mix`, `exponent` and `energy` at seeds 1-3, builds the
seeded pool of `bench/workloads.py` (imported, never changed), runs every
operation once in pool order, and counts, while an operation runs:

- `operations`: the operations of the pass;
- `solve_lp`: the LPs posed (`linprog.solve_lp` calls);
- `infeasible_lps`: those of them whose status is "infeasible";
- `certificate_normals`: the `polytope.certificate_normals` calls.

The counts come from wrappers this tool installs at every binding of the
two functions in the package's modules, as `bench/spans.py` does; nothing
in `src/` counts.  Each pass starts from cold memos (every `lru_cache` of
the package is cleared before its pool is built), so a count does not
depend on what the process ran before, and the workload's own `verify`
checks every output after the counted pass.  The counts do not depend on
the host or on its speed: a checkout that poses the same LPs gives the
same file.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import stablepairs as sp  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAMES = ("verdicts", "cli_mix", "exponent", "energy")
SEEDS = (1, 2, 3)
COUNTED = {"solve_lp": sp.linprog.solve_lp,
           "certificate_normals": sp.polytope.certificate_normals}


class Ledger:
    """Counts of the counted functions while an operation is open."""

    def __init__(self):
        self.open = False
        self.counts = dict.fromkeys(("operations", "solve_lp", "infeasible_lps",
                                     "certificate_normals"), 0)

    def wrap(self, name, fn):
        def counting(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.open:
                self.counts[name] += 1
                if name == "solve_lp" and result.status == "infeasible":
                    self.counts["infeasible_lps"] += 1
            return result
        return counting


def _package_modules() -> list:
    return [mod for name, mod in sys.modules.items() if name.split(".")[0] == "stablepairs"]


def _clear_memos() -> None:
    for mod in _package_modules():
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def count_pass(name: str, seed: int) -> dict:
    """The counts of one pass over the pool of `name` at `seed`."""
    workload = WORKLOADS[name]
    ledger = Ledger()
    installed = []
    for counted, fn in COUNTED.items():
        wrapped = ledger.wrap(counted, fn)
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is fn:
                    installed.append((mod, key, value))
                    setattr(mod, key, wrapped)
    try:
        _clear_memos()
        with tempfile.TemporaryDirectory() as workdir:
            items = [item for batch in workload.setup(random.Random(seed), workdir)
                     for item in batch]
            results = []
            for item in items:
                ledger.open = True
                try:
                    results.append(workload.run(item))
                finally:
                    ledger.open = False
            for item, result in zip(items, results):
                workload.verify(item, result)
    finally:
        for mod, key, value in reversed(installed):
            setattr(mod, key, value)
    ledger.counts["operations"] = len(items)
    return ledger.counts


def ledger(seeds=SEEDS) -> dict:
    return {name: {str(seed): count_pass(name, seed) for seed in seeds} for name in NAMES}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default=",".join(map(str, SEEDS)),
                        help="comma-separated pool seeds (default: %(default)s)")
    parser.add_argument("--out", default=os.path.join(ROOT, "WORK.json"))
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    doc = {
        "what": ("One pass over each seeded pool of bench/workloads.py from cold memos, "
                 "counted while each operation runs (tools/work_ledger.py)."),
        "counts": ledger(seeds),
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"work ledger for seeds {args.seeds} written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
