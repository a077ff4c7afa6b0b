"""The benchmark harness self-test, run as part of the test suite.

`bench/selftest.py` fails when a traced function is no longer reached
through a binding that `bench/spans.py` wraps, so a change to `src/` that
hides one from the tracer fails here, not only in the benchmark.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.slow
def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "named spans recorded" in proc.stdout
