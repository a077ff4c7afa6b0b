"""Benchmark of the stablepairs decision engine.

    python3 bench/run.py --workload verdicts --seed 1 --seconds 25 --trace 0

Runs one seeded workload (see workloads.py and bench/README.md) as a
single-threaded closed loop with one client, against the package under
`src/` of the checkout this file sits in.  Every operation's output is
checked exactly, outside the timed region.  Times are scaled to a
reference speed by the probe in speed.py; the unscaled figures are
printed too.  The last line of standard output is one JSON object: the
end-to-end metrics with `--trace 0`, the per-layer metrics of a traced run
with `--trace 1`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

MIN_INPUTS = 100  # so that at least ten latency samples lie beyond p90
WALL_LIMIT_S = 150.0  # stop measuring by then, whatever the counts


def import_program():
    """Import the package from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, "stablepairs", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"bench: no program to measure: {init} is missing")
    sys.path.insert(0, SRC)
    import stablepairs

    if os.path.abspath(stablepairs.__file__) != init:
        sys.exit(f"bench: imported stablepairs from {stablepairs.__file__}, not {init}")


@contextlib.contextmanager
def scratch_dir(tag):
    """A fresh directory under .bench_tmp/ in the checkout, removed on exit."""
    path = os.path.join(ROOT, ".bench_tmp", f"{tag}-{os.getpid()}")
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(path))
        except OSError:
            pass  # another run still uses it


def summarize(samples, factor):
    """Throughput and latency quantiles over the distinct inputs.

    `samples` holds (start, input, seconds) per operation; each time is
    multiplied by `factor(start, end)`, and an input's latency is the
    median of its times.  Returns operations per second, p50 and p90 in
    seconds.
    """
    per_input = {}
    for start, idx, elapsed in samples:
        per_input.setdefault(idx, []).append(elapsed * factor(start, start + elapsed))
    lat = sorted(statistics.median(v) for v in per_input.values())
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    return len(lat) / sum(lat), statistics.median(lat), deciles[8]


def end_to_end(ops, failed, samples, probe, setup_s):
    ops_per_s, p50, p90 = summarize(samples, probe.factor)
    return {
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "verified_frac": ((ops - failed) / ops, "frac"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def setup(workload, seed, workdir, probe):
    """Build the input pool round by round, then warm up on its first item.

    Returns the pool and the set-up time, scaled and raw: the number of
    rounds times the median time to set up one round, plus the warm-up.
    Each round is its own set-up of the same composition, so the median
    over rounds is a steady figure for a pool too large to set up more
    than once a run.
    """
    items, rounds = [], []
    pool = workload.setup(random.Random(seed), workdir)
    while True:
        probe.sample()
        t0 = time.perf_counter()
        batch = next(pool, None)
        if batch is None:
            break
        rounds.append((t0, time.perf_counter() - t0))
        items.extend(batch)
    t0 = time.perf_counter()
    workload.run(items[0])
    warm_up = (t0, time.perf_counter() - t0)
    probe.sample()

    def total(factor):
        per_round = statistics.median(e * factor(t, t + e) for t, e in rounds)
        t, e = warm_up
        return len(rounds) * per_round + e * factor(t, t + e)

    return items, total(probe.factor), total(lambda start, end: 1.0)


def measure(workload, items, seconds, tracer, probe, deadline):
    """Closed loop over the pool until `seconds` of operations and MIN_INPUTS
    distinct inputs, ending on a round boundary so that every run has the
    same mix.  Probes the host's speed between operations.  Returns
    (start, input, seconds) per operation, operations run, failures and
    total operation time."""
    samples = []
    verified = {}  # pool index -> repr of an output that passed its check
    ops = failed = 0
    timed = 0.0
    while time.monotonic() < deadline and (
        timed < seconds or ops < MIN_INPUTS or ops % len(workload.ROUND)
    ):
        if probe.due():
            probe.sample()
        idx = ops % len(items)
        ops += 1
        item = items[idx]
        error = None
        if tracer:
            tracer.begin_op()
        start = time.perf_counter()
        try:
            result = workload.run(item)
        except Exception as exc:  # a failed operation must not end the run
            error = exc
        finally:
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.end_op()
        samples.append((start, idx, elapsed))
        timed += elapsed
        if error is None:
            key = repr(result)
            if verified.get(idx) != key:
                try:
                    workload.verify(item, result)
                    verified[idx] = key
                except Exception as exc:
                    error = exc
        if error is not None:
            failed += 1
            if failed <= 5:
                print(f"bench: operation {idx} failed:", file=sys.stderr)
                traceback.print_exception(error, file=sys.stderr)
    probe.sample()
    return samples, ops, failed, timed


def main(argv=None) -> int:
    started = time.monotonic()
    # Turn a termination request into an exit, so that the scratch
    # directory is removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import workloads
    import spans
    import speed

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    with scratch_dir(args.workload) as workdir:
        probe = speed.Probe()
        items, setup_s, setup_raw = setup(workload, args.seed, workdir, probe)
        # The pool lives for the whole run: keep the collector from
        # rescanning it, so that its size does not show in operation times.
        gc.collect()
        gc.freeze()
        tracer = spans.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        try:
            samples, ops, failed, timed = measure(
                workload, items, args.seconds, tracer, probe, started + WALL_LIMIT_S)
        finally:
            if tracer:
                tracer.uninstall()

    inputs = len({idx for _, idx, _ in samples})
    if inputs < 2:
        sys.exit(f"bench: only {inputs} input(s) finished before the time limit")
    if tracer:
        metrics = tracer.metrics(ops, summarize(samples, probe.factor)[0], probe.run_factor())
    else:
        metrics = end_to_end(ops, failed, samples, probe, setup_s)
    print(f"# workload={args.workload} seed={args.seed} ops={ops} failed={failed} "
          f"failed_frac={failed / ops:.6g} timed_s={timed:.3f} inputs={inputs}")
    raw_ops, raw_p50, raw_p90 = summarize(samples, lambda start, end: 1.0)
    print(f"# probe: median {speed.REF_S / probe.run_factor() * 1e3:.4g} ms over "
          f"{len(probe.values)} samples; times below are scaled to a {speed.REF_S * 1e3:g} ms "
          f"probe (bench/speed.py)")
    print(f"# unscaled: ops_per_s = {raw_ops:.6g} 1/s, op_p50_ms = {raw_p50 * 1e3:.6g} ms, "
          f"op_p90_ms = {raw_p90 * 1e3:.6g} ms, setup_s = {setup_raw:.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
