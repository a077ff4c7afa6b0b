"""`WORK.json` is what `tools/work_ledger.py` counts: a fresh seed-1 pass of
every pool gives exactly its committed counts."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "work_ledger.py"
COMMITTED = json.loads((ROOT / "WORK.json").read_text())["counts"]
KEYS = {"operations", "solve_lp", "infeasible_lps", "certificate_normals"}


def test_ledger_covers_every_workload_and_seed():
    assert set(COMMITTED) == {"verdicts", "cli_mix", "exponent", "energy"}
    for seeds in COMMITTED.values():
        assert set(seeds) == {"1", "2", "3"}
        for counts in seeds.values():
            assert set(counts) == KEYS
            assert counts["infeasible_lps"] <= counts["solve_lp"]


@pytest.mark.slow
def test_seed_one_recomputes_exactly(tmp_path):
    out = tmp_path / "work.json"
    run = subprocess.run([sys.executable, str(TOOL), "--seeds", "1", "--out", str(out)],
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    fresh = json.loads(out.read_text())["counts"]
    assert fresh == {name: {"1": seeds["1"]} for name, seeds in COMMITTED.items()}
