"""Run `bench/run.py` in two checkouts as alternating pairs and write a
before/after file in the format of the committed `BENCH_*.json`.

    python3 tools/bench_pairs.py --parent ../old --change . --out BENCH_x.json \\
        --workload cli_mix:10:3001 --workload verdicts:5:3011 --seconds 25 \\
        --trace cli_mix:3021 --note "Claimed: op_p50_ms on cli_mix improves."

Each `--workload NAME:PAIRS:SEED` runs PAIRS pairs, pair i on seed SEED + i,
one `bench/run.py --trace 0` run per checkout; the side that runs first
alternates pair to pair (the parent first in even pairs).  `bench/run.py`
is run unmodified, from each checkout's own directory, and a run's
`result` is the last JSON line of its output.  Per side, every metric is
summarized by its median and quartiles (inclusive method); the file also
holds, per metric other than `verified_frac`, the ratio of the medians
(change over parent) and in how many pairs the change was better, in the
direction `BENCHMARK.json` gives.  Each `--trace NAME:SEED` adds one
`--trace 1` run per side, under the key `traced`.  The commits of the two
checkouts are read with `git rev-parse` where they have one.  Progress
goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
UNPAIRED = ("verified_frac",)  # constant 1 on a correct run: no ratio, no count


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result line of one `bench/run.py` run in `checkout`."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"bench_pairs: {' '.join(argv[1:])} in {checkout} exited "
                 f"{done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(runs: dict[str, list[dict]], better: dict[str, str]) -> dict:
    """The entry of one workload from its runs, each {pair, seed, result}."""
    values = {
        side: {
            metric: [run["result"]["metrics"][metric]["value"] for run in runs[side]]
            for metric in runs[side][0]["result"]["metrics"]
        }
        for side in SIDES
    }
    entry = {
        side: {"runs": runs[side],
               "summary": {m: summarize(v) for m, v in values[side].items()}}
        for side in SIDES
    }
    paired = [m for m in values["parent"] if m not in UNPAIRED]
    counts, ratios = {}, {}
    for m in paired:
        parent, change = values["parent"][m], values["change"][m]
        wins = sum(c > p if better[m] == "higher" else c < p for p, c in zip(parent, change))
        counts[m] = f"{wins}/{len(change)}"
        ratios[m] = statistics.median(change) / statistics.median(parent)
    entry["change_better_pairs"] = counts
    entry["median_ratio_change_over_parent"] = ratios
    entry["failed"] = {side: sum(run["result"]["failed"] for run in runs[side]) for side in SIDES}
    return entry


def revision(checkout: Path) -> str:
    """The checkout's commit, marked when its tree has uncommitted changes;
    the directory's name when it is not a git checkout."""
    def git(*argv):
        done = subprocess.run(["git", *argv], cwd=checkout, capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    head = git("rev-parse", "--short", "HEAD")
    if head is None:
        return checkout.name
    return head + (" with uncommitted changes" if git("status", "--porcelain") else "")


def host() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return f"{os.cpu_count()} CPUs, {cpu}, Python {platform.python_version()}"


def _spec(text: str, parts: int) -> tuple:
    fields = text.split(":")
    if len(fields) != parts or not all(fields):
        raise argparse.ArgumentTypeError(f"expected {parts} fields separated by ':', got {text!r}")
    try:
        spec = (fields[0], *map(int, fields[1:]))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer in {text!r}") from None
    if parts == 3 and spec[1] < 2:
        raise argparse.ArgumentTypeError("quartiles need at least 2 pairs")
    return spec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the checkout before")
    parser.add_argument("--change", type=Path, required=True, help="the checkout after")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_<name>.json to write")
    parser.add_argument("--workload", type=lambda t: _spec(t, 3), action="append", default=[],
                        metavar="NAME:PAIRS:SEED", required=True)
    parser.add_argument("--trace", type=lambda t: _spec(t, 2), action="append", default=[],
                        metavar="NAME:SEED")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--note", default="", help="appended to the file's `what`")
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seeds = ", ".join(f"{seed}-{seed + pairs - 1} ({name})" for name, pairs, seed in args.workload)
    doc = {
        "what": (
            f"bench/run.py --seconds {args.seconds:g} --trace 0 (unmodified), "
            f"parent = {revision(checkouts['parent'])}, change = {revision(checkouts['change'])}. "
            "Alternating parent/change pairs, each pair on one seed, the side that runs first "
            "alternating pair to pair (parent first in even pairs); each run's `result` is the "
            f"last JSON line of its output. Seeds {seeds}. {args.note}"
        ).strip(),
        "host": host(),
        "workloads": {},
    }
    for name, pairs, seed in args.workload:
        runs = {side: [] for side in SIDES}
        for pair in range(pairs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                result = run_bench(checkouts[side], name, seed + pair, args.seconds, 0)
                runs[side].append({"pair": pair, "seed": seed + pair, "result": result})
                print(f"bench_pairs: {name} pair {pair} {side}: "
                      f"{json.dumps(result['metrics'])}", file=sys.stderr)
        doc["workloads"][name] = compare(runs, better)
    if args.trace:
        doc["traced"] = {"what": f"bench/run.py --seconds {args.seconds:g} --trace 1, "
                                 "one run per side, parent first; per-operation figures"}
        for name, seed in args.trace:
            doc["traced"][f"{name}@seed{seed}"] = {
                side: {m: v["value"] for m, v in
                       run_bench(checkouts[side], name, seed, args.seconds, 1)["metrics"].items()}
                for side in SIDES
            }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
