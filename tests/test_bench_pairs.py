"""`tools/bench_pairs.py` writes a file that `tests/test_bench_files.py`
accepts: its summaries, ratios and pair counts recompute from its runs."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import test_bench_files

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_pairs.py"
CHECKS = (
    test_bench_files.test_every_run_is_correct,
    test_bench_files.test_summaries_recompute_from_the_runs,
    test_bench_files.test_median_ratios_are_the_ratio_of_the_medians,
    test_bench_files.test_better_pair_counts_recompute,
)


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(pair, seed, ops_per_s, p50):
    metrics = {
        "ops_per_s": ops_per_s, "op_p50_ms": p50, "op_p90_ms": 3 * p50,
        "verified_frac": 1.0, "setup_s": 0.2, "peak_rss_mb": 30.0 + pair,
    }
    return {"pair": pair, "seed": seed, "result": {
        "correct": True, "attempted": 100, "failed": 0,
        "metrics": {m: {"value": v, "unit": "u"} for m, v in metrics.items()},
    }}


def test_compare_recomputes_under_the_committed_file_checks():
    runs = {
        "parent": [_run(i, 10 + i, 100.0 + i, 0.30 - i / 100) for i in range(4)],
        "change": [_run(i, 10 + i, 110.0 - 3 * i, 0.28) for i in range(4)],
    }
    entry = _bench_pairs().compare(runs, test_bench_files.BETTER)
    for check in CHECKS:
        check(entry)
    assert entry["change_better_pairs"]["ops_per_s"] == "3/4"
    assert entry["change_better_pairs"]["op_p50_ms"] == "2/4"
    assert "verified_frac" not in entry["median_ratio_change_over_parent"]
    assert entry["failed"] == {"parent": 0, "change": 0}


@pytest.mark.slow
def test_a_short_run_against_this_checkout_passes_the_checks(tmp_path):
    out = tmp_path / "BENCH_t.json"
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--parent", str(ROOT), "--change", str(ROOT),
         "--out", str(out), "--workload", "verdicts:2:1", "--trace", "verdicts:1",
         "--seconds", "0.01"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert set(doc) == {"what", "host", "workloads", "traced"}
    entry = doc["workloads"]["verdicts"]
    for check in CHECKS:
        check(entry)
    assert [(run["pair"], run["seed"]) for run in entry["change"]["runs"]] == [(0, 1), (1, 2)]
    traced = doc["traced"]["verdicts@seed1"]
    assert traced["parent"]["trace.ops_per_s"] > 0 and traced["change"]["trace.ops_per_s"] > 0
