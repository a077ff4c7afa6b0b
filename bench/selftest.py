"""Self-test of the benchmark harness on a tiny run.

    python3 bench/selftest.py

For every workload, on the first round of its seeded inputs, checks that

- tracing replaces every binding of every traced function in the package;
- traced outputs equal untraced ones, and pass their exact checks;
- per operation, the self times of all spans add up to the operation's time;
- the LP count of each operation repeats exactly across two traced runs;

and, over all workloads together, that every named span was recorded.
Exits 0 when all hold.
"""

from __future__ import annotations

import random
import sys
import time

import run

SEED = 7


def traced(workload, items):
    tracer = spans.Tracer()
    tracer.install()
    try:
        check_bindings()
        results = []
        for item in items:
            tracer.begin_op()
            try:
                results.append(repr(workload.run(item)))
            finally:
                tracer.end_op()
    finally:
        tracer.uninstall()
    return tracer, results


def check_bindings():
    """No module of the package still holds an unwrapped traced function."""
    mods = [m for n, m in sys.modules.items() if n.split(".")[0] == "stablepairs"]
    for modname, attr in spans.SPANS:
        owner = sys.modules["stablepairs." + modname]
        if "." in attr:
            cls, meth = attr.split(".")
            fn = getattr(owner, cls).__dict__[meth]
            expect(hasattr(fn, "__wrapped__"), f"{attr} not wrapped")
            continue
        original = getattr(owner, attr).__wrapped__
        for mod in mods:
            for key, value in vars(mod).items():
                expect(value is not original, f"{mod.__name__}.{key} escaped tracing")


def main() -> int:
    seen = set()
    with run.scratch_dir("selftest") as workdir:
        for name, workload in workloads.WORKLOADS.items():
            start = time.perf_counter()
            items = next(workload.setup(random.Random(SEED), workdir))
            outputs = [workload.run(item) for item in items]
            for item, out in zip(items, outputs):
                workload.verify(item, out)
            plain = [repr(out) for out in outputs]
            first, results = traced(workload, items)
            second, _ = traced(workload, items)
            expect(results == plain, f"{name}: tracing changed an output")
            for total, self_sum in zip(first.op_seconds, first.op_self_sum):
                expect(abs(total - self_sum) <= 1e-6,
                       f"{name}: self times sum to {self_sum}, operation took {total}")
            expect(first.op_lps == second.op_lps, f"{name}: LP counts differ across runs")
            seen |= set(first.spans)
            print(f"ok  {name}: {len(items)} operations, LPs per operation "
                  f"{first.op_lps}, {time.perf_counter() - start:.1f}s")
    missing = set(spans.SPANS.values()) - seen
    expect(not missing, f"spans never recorded: {sorted(missing)}")
    print(f"ok  all {len(spans.SPANS)} named spans recorded")
    return 0


if __name__ == "__main__":
    run.import_program()
    import spans
    import workloads
    from workloads import expect

    sys.exit(main())
