"""`tools/diff_outputs.py` on synthetic dump lines: floats compared by
value, everything else exactly, tallied per workload."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "diff_outputs.py"
_SPEC = importlib.util.spec_from_file_location("diff_outputs", _PATH)
diff_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(diff_outputs)

BEFORE = [
    "verdicts 1 (Verdict(semistable=False, witness=(1,)), 'infeasible')",
    "energy 1 ([-2.0, -1.0], 0.5, inf)",
    "energy 1 normals ((-2, -3), (1, 0))",
    'cli_mix 1 (0, \'{"slope": -4.0, "infimum_estimate": 1e-05, "futaki_gen": -4}\\n\')',
]


def _run(tmp_path, after, capsys):
    (tmp_path / "before").write_text("\n".join(BEFORE) + "\n")
    (tmp_path / "after").write_text("\n".join(after) + "\n")
    code = diff_outputs.main([str(tmp_path / "before"), str(tmp_path / "after")])
    return code, capsys.readouterr().out


def test_identical_files(tmp_path, capsys):
    code, out = _run(tmp_path, BEFORE, capsys)
    assert code == 0
    assert "energy: 2 identical, 0 float-only" in out
    assert "0 other differences" in out


def test_float_only_differences_are_tallied(tmp_path, capsys):
    after = list(BEFORE)
    after[1] = "energy 1 ([-2.0, -0.75], 0.25, inf)"
    after[3] = BEFORE[3].replace("1e-05", "3e-05")
    code, out = _run(tmp_path, after, capsys)
    assert code == 0
    assert "energy: 1 identical, 1 float-only (1 floats up, 1 down, largest |change| 0.25)" in out
    assert "cli_mix: 0 identical, 1 float-only (1 floats up, 0 down, largest |change| 2e-05)" in out
    assert "verdicts: 1 identical, 0 float-only" in out


def test_float_spellings_compare_by_value(tmp_path, capsys):
    after = list(BEFORE)
    after[3] = BEFORE[3].replace("1e-05", "1.0e-5")
    code, out = _run(tmp_path, after, capsys)
    assert code == 0
    assert "cli_mix: 0 identical, 1 float-only (0 floats up, 0 down" in out


@pytest.mark.parametrize("index, old, new", [
    (0, "False", "True"),  # a verdict
    (0, "'infeasible'", "'infinite'"),  # words that start like inf are not floats
    (2, "(1, 0)", "(1, 1)"),  # an integer
    (3, '"futaki_gen": -4', '"futaki_gen": -4.0'),  # an integer became a float
    (1, "0.5, inf", "0.5"),  # a float went missing
    (1, "0.5, inf", "nan, inf"),  # a number became NaN
    (1, "0.5, inf", "0.5, nan"),  # an infinity became NaN
])
def test_other_differences_fail(tmp_path, capsys, index, old, new):
    after = list(BEFORE)
    after[index] = BEFORE[index].replace(old, new)
    assert after[index] != BEFORE[index]
    code, out = _run(tmp_path, after, capsys)
    assert code == 1
    assert f"line {index + 1}:" in out
    assert "1 other differences" in out


def test_nan_that_became_a_number_fails(tmp_path, capsys):
    before = BEFORE[3].replace("1e-05", "NaN")
    (tmp_path / "before").write_text(before + "\n")
    (tmp_path / "after").write_text(BEFORE[3] + "\n")
    assert diff_outputs.main([str(tmp_path / "before"), str(tmp_path / "after")]) == 1
    assert "1 other differences" in capsys.readouterr().out


def test_nan_on_both_sides_is_identical_in_value(tmp_path, capsys):
    line = BEFORE[1].replace("0.5", "nan")
    (tmp_path / "before").write_text(line + "\n")
    (tmp_path / "after").write_text(line.replace("nan", "NaN") + "\n")
    assert diff_outputs.main([str(tmp_path / "before"), str(tmp_path / "after")]) == 0
    assert "energy: 0 identical, 1 float-only (0 floats up, 0 down" in capsys.readouterr().out


def test_line_counts_must_match(tmp_path, capsys):
    code, out = _run(tmp_path, BEFORE[:-1], capsys)
    assert code == 1
    assert "line counts differ: 4 before, 3 after" in out
