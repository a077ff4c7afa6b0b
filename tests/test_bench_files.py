"""The committed before/after benchmark files (`BENCH_*.json`) are
consistent with their own runs: every run passed its checks, and every
summary, ratio and pair count recomputes from the runs, with the direction
of each metric read from `BENCHMARK.json`."""

import json
import math
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("BENCH_*.json"))
BETTER = {
    m["name"]: m["better"]
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
}
SIDES = ("parent", "change")


def _workloads():
    for path in FILES:
        for name, entry in json.loads(path.read_text())["workloads"].items():
            yield pytest.param(entry, id=f"{path.stem}:{name}")


def _values(side, metric):
    return [run["result"]["metrics"][metric]["value"] for run in side["runs"]]


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def test_bench_files_exist():
    assert FILES, "no committed BENCH_*.json"


@pytest.mark.parametrize("entry", _workloads())
def test_every_run_is_correct(entry):
    for side in SIDES:
        for run in entry[side]["runs"]:
            assert run["result"]["correct"] is True, (side, run["seed"])


@pytest.mark.parametrize("entry", _workloads())
def test_summaries_recompute_from_the_runs(entry):
    for side in SIDES:
        for metric, summary in entry[side]["summary"].items():
            values = _values(entry[side], metric)
            q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
            assert _close(summary["median"], statistics.median(values)), (side, metric)
            assert _close(summary["q1"], q1), (side, metric)
            assert _close(summary["q3"], q3), (side, metric)


@pytest.mark.parametrize("entry", _workloads())
def test_median_ratios_are_the_ratio_of_the_medians(entry):
    ratios = entry["median_ratio_change_over_parent"]
    assert ratios
    for metric, ratio in ratios.items():
        parent, change = (statistics.median(_values(entry[s], metric)) for s in SIDES)
        assert _close(ratio, change / parent), metric


@pytest.mark.parametrize("entry", _workloads())
def test_better_pair_counts_recompute(entry):
    parent = {run["pair"]: run for run in entry["parent"]["runs"]}
    change = {run["pair"]: run for run in entry["change"]["runs"]}
    assert parent.keys() == change.keys()
    counts = entry["change_better_pairs"]
    assert counts
    for metric, count in counts.items():
        higher = BETTER[metric] == "higher"
        better = 0
        for pair, run in change.items():
            c = run["result"]["metrics"][metric]["value"]
            p = parent[pair]["result"]["metrics"][metric]["value"]
            better += c > p if higher else c < p
        assert count == f"{better}/{len(change)}", metric
