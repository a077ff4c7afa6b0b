"""`tools/dump_outputs.py` writes the same bytes under another CPython.

The floats of `energy` are summed in one fixed order (`_log_sum_exp`,
`_moments`), so every output, floats included, should not depend on the
Python version.  This runs the dump under this interpreter and under the
first other python3.10 to python3.14 on PATH, and compares the files.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

DUMP = Path(__file__).resolve().parent.parent / "tools" / "dump_outputs.py"
HERE = ".".join(map(str, sys.version_info[:3]))


def _other_interpreter() -> tuple[str, str] | None:
    """(path, version) of the first of python3.10 to python3.14 on PATH that
    runs and reports a version other than this one, or None."""
    for minor in range(10, 15):
        path = shutil.which(f"python3.{minor}")
        if path is None:
            continue
        try:
            run = subprocess.run(
                [path, "-c", "import sys; print(*sys.version_info[:3], sep='.')"],
                capture_output=True, text=True, timeout=60,
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        version = run.stdout.strip()
        if run.returncode == 0 and version and version != HERE:
            return path, version
    return None


@pytest.mark.slow
def test_dump_is_byte_identical_under_another_interpreter(tmp_path):
    other = _other_interpreter()
    if other is None:
        pytest.skip(f"no python3.10 to python3.14 on PATH runs with a version other than {HERE}")
    path, version = other
    # The dump finds the package itself; another interpreter gets no path of this one.
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONHOME")}
    outs = {HERE: tmp_path / "here.txt", version: tmp_path / "other.txt"}
    runs = [
        subprocess.Popen([exe, str(DUMP), str(out)], env=env, stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE, text=True)
        for exe, out in zip((sys.executable, path), outs.values())
    ]
    for run in runs:
        _, err = run.communicate(timeout=600)
        assert run.returncode == 0, err
    here, there = (out.read_text().splitlines() for out in outs.values())
    assert len(here) == len(there)
    first = next((i for i, (a, b) in enumerate(zip(here, there)) if a != b), None)
    assert first is None, (
        f"line {first + 1} differs under {version} ({path}):\n{here[first]}\n{there[first]}"
    )
    assert outs[HERE].read_bytes() == outs[version].read_bytes()
