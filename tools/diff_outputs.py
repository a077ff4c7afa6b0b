"""Compare two `tools/dump_outputs.py` files line by line.

    python3 tools/diff_outputs.py BEFORE AFTER

Float literals (`-0.5`, `1e-05`, `inf`, JSON's `Infinity` and `NaN`) are
compared by value and everything else exactly.  Per workload, the first
word of each line, it prints how many lines are identical and how many
differ only in floats, with how many floats went up and down and the
largest |change|; then each line that differs otherwise.  Exits 0 when the
files differ in float values at most, 1 on any other difference (a line
count, a verdict, an integer, a key, a number that became NaN or a NaN
that became a number).
"""

from __future__ import annotations

import math
import re
import sys

FLOAT = re.compile(
    r"(?<![\w.])-?(?:\d+\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+|inf|nan|Infinity|NaN)(?![\w.])"
)


def split(line: str) -> tuple[list[str], list[float]]:
    """The text around the float literals of `line`, and their values."""
    parts = FLOAT.split(line)
    values = [float(s.replace("Infinity", "inf").replace("NaN", "nan")) for s in FLOAT.findall(line)]
    return parts, values


def compare(before: list[str], after: list[str]) -> tuple[dict[str, dict], list[str]]:
    """Per-workload tallies, and a description of each non-float difference."""
    tallies: dict[str, dict] = {}
    other = []
    if len(before) != len(after):
        other.append(f"line counts differ: {len(before)} before, {len(after)} after")
    for number, (old, new) in enumerate(zip(before, after), 1):
        tally = tallies.setdefault(old.split(" ", 1)[0],
                                   {"identical": 0, "float_only": 0, "up": 0, "down": 0, "max_abs": 0.0})
        if old == new:
            tally["identical"] += 1
            continue
        (old_text, old_values), (new_text, new_values) = split(old), split(new)
        if (old_text != new_text or len(old_values) != len(new_values)
                or any(math.isnan(x) != math.isnan(y) for x, y in zip(old_values, new_values))):
            other.append(f"line {number}:\n- {old.rstrip()}\n+ {new.rstrip()}")
            continue
        tally["float_only"] += 1
        for x, y in zip(old_values, new_values):
            if x == y or (math.isnan(x) and math.isnan(y)):
                continue
            tally["up" if y > x else "down"] += 1
            tally["max_abs"] = max(tally["max_abs"], abs(y - x))
    return tallies, other


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit("usage: diff_outputs.py BEFORE AFTER")
    before, after = (open(path).read().splitlines() for path in argv)
    tallies, other = compare(before, after)
    for name, t in tallies.items():
        print(f"{name}: {t['identical']} identical, {t['float_only']} float-only "
              f"({t['up']} floats up, {t['down']} down, largest |change| {t['max_abs']:.3g})")
    for text in other:
        print(text)
    print(f"{len(other)} other differences")
    return 1 if other else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
