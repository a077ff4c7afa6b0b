import contextlib
import io
import json
import math
import random
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import stablepairs.binary_forms
import stablepairs.cli
import stablepairs.energy
import stablepairs.linprog
import stablepairs.pairs
import stablepairs.polytope
from stablepairs import (
    Pair,
    StabilityProblem,
    WeightedVector,
    asymptotic_slope,
    energy_along,
    futaki_gen,
)
from stablepairs.cli import (
    MAX_MAGNITUDE_DIGITS,
    MAX_ORACLE_DEGREE,
    MAX_RANK,
    MAX_VARIETY_N,
    main,
    parse_problem,
)

from helpers import random_binary_form, serialize_pair


@pytest.fixture
def semistable_file(tmp_path):
    path = tmp_path / "semi.json"
    path.write_text(
        json.dumps(
            {
                "rank": 2,
                "constraints": [],
                "Q": [[1, 0], [-1, 0], [0, 1], [0, -1]],
                "v": {"support": [[1, 0]]},
                "w": {"support": [[1, 0], [0, 1]], "magnitudes": ["1", "2/3"]},
            }
        )
    )
    return str(path)


@pytest.fixture
def unstable_file(tmp_path):
    path = tmp_path / "unst.json"
    path.write_text(
        json.dumps(
            {
                "rank": 2,
                "Q": [[1, 0], [-1, 0], [0, 1], [0, -1]],
                "v": {"support": [[1, 0], [0, 1]]},
                "w": {"support": [[1, 0]]},
            }
        )
    )
    return str(path)


@pytest.fixture
def stable_file(tmp_path):
    path = tmp_path / "stab.json"
    path.write_text(
        json.dumps(
            {
                "rank": 2,
                "Q": [[1, 0], [-1, 0], [0, 1], [0, -1]],
                "v": {"support": [[0, 0]]},
                "w": {"support": [[1, 0], [-1, 0], [0, 1], [0, -1]]},
            }
        )
    )
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


class TestCheck:
    def test_semistable(self, capsys, semistable_file):
        code, payload = run(capsys, "check", semistable_file)
        assert code == 0
        assert payload == {"status": "semistable"}

    def test_unstable_with_witness(self, capsys, unstable_file):
        code, payload = run(capsys, "check", unstable_file)
        assert code == 1
        assert payload["status"] == "unstable"
        assert payload["witness"] == [1, -1]

    def test_missing_file(self, capsys):
        code, payload = run(capsys, "check", "/no/such/file.json")
        assert code == 2
        assert "error" in payload

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, payload = run(capsys, "check", str(bad))
        assert code == 2

    def test_rank_mismatch(self, capsys, tmp_path):
        bad = tmp_path / "mismatch.json"
        bad.write_text(
            json.dumps(
                {
                    "rank": 2,
                    "Q": [[1, 0], [-1, 0], [0, 1], [0, -1]],
                    "v": {"support": [[1, 0, 0]]},
                    "w": {"support": [[1, 0]]},
                }
            )
        )
        code, payload = run(capsys, "check", str(bad))
        assert code == 2

    def test_top_level_list_is_a_plain_input_error(self, capsys, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        code, payload = run(capsys, "check", str(bad))
        assert code == 2
        assert payload == {"error": "a problem must be a JSON object"}

    def test_bool_coordinates_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bool.json"
        bad.write_text(
            json.dumps({"rank": 2, "v": {"support": [[True, 0]]}, "w": {"support": [[1, 0]]}})
        )
        code, payload = run(capsys, "check", str(bad))
        assert code == 2
        assert "True" in payload["error"]

    def test_zero_denominator_magnitude_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "zero.json"
        bad.write_text(
            json.dumps({"rank": 1, "v": {"support": [[0]], "magnitudes": ["1/0"]},
                        "w": {"support": [[0]]}})
        )
        code, payload = run(capsys, "check", str(bad))
        assert code == 2


_POINT = {"support": [[0, 0]]}


class TestProblemFields:
    """Malformed problem fields are plain input errors (exit 2)."""

    def check_error(self, capsys, tmp_path, problem):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        code, payload = run(capsys, "check", str(path))
        assert code == 2
        return payload["error"]

    @pytest.mark.parametrize(
        "rank", [2.7, True, "2", 2.0], ids=["float", "bool", "string", "whole_float"]
    )
    def test_rank_must_be_a_json_integer(self, capsys, tmp_path, rank):
        error = self.check_error(capsys, tmp_path, {"rank": rank, "v": _POINT, "w": _POINT})
        assert error.startswith("'rank' must be an integer, not ")

    def test_null_rank(self, capsys, tmp_path):
        error = self.check_error(capsys, tmp_path, {"rank": None, "v": _POINT, "w": _POINT})
        assert error == "'rank' must be an integer, not null"

    @pytest.mark.parametrize("field", ["rank", "v", "w"])
    def test_missing_field(self, capsys, tmp_path, field):
        problem = {"rank": 2, "v": _POINT, "w": _POINT}
        del problem[field]
        assert self.check_error(capsys, tmp_path, problem) == f"missing field '{field}'"

    def test_constraints_must_be_a_list(self, capsys, tmp_path):
        problem = {"rank": 2, "constraints": 3, "v": _POINT, "w": _POINT}
        assert self.check_error(capsys, tmp_path, problem) == "'constraints' must be a list"

    def test_magnitudes_must_be_a_list(self, capsys, tmp_path):
        problem = {"rank": 2, "v": {"support": [[0, 0]], "magnitudes": 3}, "w": _POINT}
        assert self.check_error(capsys, tmp_path, problem) == "'magnitudes' must be a list"

    def test_rank_above_the_cap_is_refused_before_any_work(self, capsys, tmp_path, monkeypatch):
        calls = []
        real = stablepairs.pairs.interior_contains
        monkeypatch.setattr(
            stablepairs.pairs, "interior_contains", lambda *a: calls.append(a) or real(*a)
        )
        point = {"support": [[0] * 40]}
        error = self.check_error(capsys, tmp_path, {"rank": 40, "v": point, "w": point})
        assert calls == []
        assert str(stablepairs.cli.MAX_RANK) in error and "cap" in error

    def test_rank_at_the_cap_is_accepted(self, capsys, tmp_path):
        point = {"support": [[0] * MAX_RANK]}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"rank": MAX_RANK, "v": point, "w": point}))
        code, payload = run(capsys, "check", str(path))
        assert (code, payload) == (0, {"status": "semistable"})

    @pytest.mark.parametrize("magnitude", ["1e1000000", "1e-1000000", "2.5E+4300", "1e4300",
                                           "0.5e-4299", "1e1_000_000"])
    def test_magnitude_beyond_the_digit_cap_is_refused_up_front(self, capsys, tmp_path,
                                                                  magnitude):
        # "1e1000000" would build a million-digit numerator; each of these
        # would have a numerator or denominator of 4301 digits or more.
        problem = {"rank": 2, "v": {"support": [[0, 0]], "magnitudes": [magnitude]}, "w": _POINT}
        start = time.perf_counter()
        error = self.check_error(capsys, tmp_path, problem)
        assert time.perf_counter() - start < 0.05
        assert str(MAX_MAGNITUDE_DIGITS) in error and "cap" in error

    def test_magnitude_with_a_zero_denominator_is_an_input_error(self, capsys, tmp_path):
        problem = {"rank": 2, "v": {"support": [[0, 0]], "magnitudes": ["1/0"]}, "w": _POINT}
        assert "zero denominator" in self.check_error(capsys, tmp_path, problem)

    @pytest.mark.parametrize("magnitude", ["1e4299", "1.5e4299", "1e-4299", "001e4299"])
    def test_magnitude_at_the_digit_cap_is_accepted(self, capsys, tmp_path, magnitude):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"rank": 2, "w": _POINT,
                                    "v": {"support": [[0, 0]], "magnitudes": [magnitude]}}))
        assert run(capsys, "check", str(path)) == (0, {"status": "semistable"})
        assert max(map(len, str(Fraction(magnitude)).split("/"))) == MAX_MAGNITUDE_DIGITS


def _moment_curve(rank, npoints):
    # Points of a cyclic polytope: the most facets n points of a rank can have.
    return [[t ** (i + 1) for i in range(rank)] for t in range(1, npoints + 1)]


class TestHullCap:
    @pytest.mark.parametrize(
        "command, extra",
        [("stable", []), ("energy", ["--ops=" + ",".join(["0"] * 10), "--infimum"])],
        ids=["stable", "energy_infimum"],
    )
    def test_large_hull_is_refused_before_any_enumeration(
        self, capsys, tmp_path, monkeypatch, command, extra
    ):
        calls = []

        def never(*args):
            calls.append(args)
            raise AssertionError("certificate_normals called")

        for module in (stablepairs.pairs, stablepairs.polytope):
            monkeypatch.setattr(module, "certificate_normals", never)
        points = _moment_curve(10, 30)
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(
            {"rank": 10, "v": {"support": points[:1]}, "w": {"support": points}}
        ))
        start = time.perf_counter()
        code, payload = run(capsys, command, str(path), *extra)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and calls == []
        assert str(stablepairs.cli.MAX_HULL_WORK) in payload["error"]

    def test_stable_refuses_a_large_reference_polytope(self, capsys, tmp_path):
        # The default Q of rank 10 is the cross-polytope on 20 points, whose
        # hull dimension allows 4004 facets by the bound (it has 1024).
        path = tmp_path / "problem.json"
        origin = {"support": [[0] * 10]}
        path.write_text(json.dumps({"rank": 10, "v": origin, "w": origin}))
        code, payload = run(capsys, "stable", str(path))
        assert code == 2 and "hull of Q" in payload["error"]
        code, payload = run(capsys, "check", str(path))
        assert (code, payload) == (0, {"status": "semistable"})

    @pytest.mark.parametrize("rank, npoints", [(3, 9), (4, 10), (5, 9), (6, 10)])
    def test_facet_bound_is_reached_on_the_moment_curve(self, rank, npoints):
        normals = stablepairs.certificate_normals(_moment_curve(rank, npoints))
        assert len(normals) == stablepairs.cli._max_facets(npoints, rank)

    def test_facet_bound_covers_lower_dimensions(self):
        # Five points span at most a bipyramid (6 facets) in dimension 3 or 4.
        assert stablepairs.cli._max_facets(5, 4) == 6
        assert stablepairs.cli._max_facets(1, 5) == 1
        assert stablepairs.cli._max_facets(12, 2) == 12

    def test_cap_admits_the_benchmark_requests(self, capsys, semistable_file, tmp_path):
        # Rank 3 with an 8-point w-support and the cross-polytope Q, the
        # largest `stable` and `energy --infimum` requests of `bench/`.
        w = [[a, b, c] for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)]
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"rank": 3, "v": {"support": [[0, 0, 0]]}, "w": {"support": w}}))
        assert run(capsys, "stable", str(path))[0] == 0
        assert run(capsys, "energy", str(path), "--ops=1,0,0", "--infimum")[0] == 0


class TestExitCodes:
    @pytest.mark.parametrize("magnitude", ["1e400", str(Fraction(1, 10**333)),
                                           str(Fraction(3, 10**320))],
                             ids=["1e400", "1/10^333", "3/10^320"])
    def test_magnitude_beyond_the_float_range_is_answered(self, capsys, tmp_path, magnitude):
        # An exact rational magnitude is valid input whether or not a float
        # holds it: `check` and `energy` both answer.
        big = tmp_path / "big.json"
        big.write_text(
            json.dumps(
                {
                    "rank": 2,
                    "v": {"support": [[0, 0]], "magnitudes": [magnitude]},
                    "w": {"support": [[0, 0], [1, 0]]},
                }
            )
        )
        assert run(capsys, "check", str(big))[0] == 0
        code, payload = run(capsys, "energy", str(big), "--ops", "1,0", "--slope", "--infimum")
        assert code == 0
        m = Fraction(magnitude)
        log_v = math.log(m.numerator) - math.log(m.denominator)
        assert math.isclose(payload["energy_at_identity"], math.log(2) - log_v, rel_tol=1e-12)
        assert abs(payload["slope"]) < 1e-6  # futaki_gen is 0 along (1, 0)
        assert payload["infimum_estimate"] <= payload["energy_at_identity"]

    def test_internal_failure_has_its_own_code(self, capsys, monkeypatch, semistable_file):
        def broken(pair):
            raise RuntimeError("internal: simulated")

        monkeypatch.setattr(stablepairs.cli, "t_semistable", broken)
        code, payload = run(capsys, "check", semistable_file)
        assert code == 3
        assert payload == {"error": "RuntimeError: internal: simulated"}

    def test_a_cycling_lp_is_an_internal_failure(self, capsys, monkeypatch, tmp_path):
        # v = 0 is not a w-point, so `check` poses a containment LP that pivots.
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({
            "rank": 2, "v": {"support": [[0, 0]]},
            "w": {"support": [[1, 0], [-1, 0], [0, 1], [0, -1]]},
        }))
        assert run(capsys, "check", str(path))[0] == 0
        monkeypatch.setattr(stablepairs.linprog, "_max_pivots", lambda n, m: 0)
        code, payload = run(capsys, "check", str(path))
        assert code == 3
        assert payload["error"].startswith("RuntimeError: internal: ")

    @pytest.mark.parametrize("command, witness", [
        # The `check` cases have bare ids; the others add the command name.
        pytest.param(command, witness, id=name if command == "check" else f"{name}-{command}")
        for command in ("check", "destabilize", "relinv", "stable")
        for name, witness in (("inadmissible", (1, 0)), ("zero", (0, 0)), ("no_gap", (-1, 1)))
    ])
    def test_a_witness_that_fails_verification_is_internal(
        self, capsys, monkeypatch, tmp_path, command, witness
    ):
        # Every unstable answer verifies its witness in one place.  An
        # inadmissible witness is caught before `futaki_gen`, whose
        # ValueError would read as an input error (exit 2).
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({
            "rank": 2, "constraints": [[1, 1]], "Q": [[1, -1], [-1, 1]],
            "v": {"support": [[1, 0], [0, 1]]}, "w": {"support": [[1, 0]]},
        }))
        if command == "stable":
            monkeypatch.setattr(
                stablepairs.cli, "stable",
                lambda pair, m_max: stablepairs.pairs.StableVerdict.unstable_base(witness),
            )
        else:
            monkeypatch.setattr(
                stablepairs.cli, "t_semistable",
                lambda pair: stablepairs.pairs.Verdict(False, witness),
            )
        extra = ["--chi", "1,0"] if command == "relinv" else []
        code, payload = run(capsys, command, str(path), *extra)
        assert code == 3
        assert payload == {"error": "RuntimeError: internal: emitted witness failed verification"}


class TestStableCommand:
    def test_stable(self, capsys, stable_file):
        code, payload = run(capsys, "stable", stable_file, "--max-m", "4")
        assert code == 0
        assert payload == {"status": "stable", "exponent": 1}

    def test_not_stable_up_to(self, capsys, semistable_file):
        code, payload = run(capsys, "stable", semistable_file, "--max-m", "3")
        assert code == 1
        assert payload == {"status": "not_stable_up_to", "m_max": 3}

    def test_unstable_base(self, capsys, unstable_file):
        code, payload = run(capsys, "stable", unstable_file)
        assert code == 1
        assert payload["status"] == "unstable"

    def test_never_stable_pair_with_a_huge_cap(self, capsys, tmp_path):
        path = tmp_path / "never.json"
        path.write_text(
            json.dumps({"rank": 2, "v": {"support": [[0, 0]]},
                        "w": {"support": [[0, 0], [1, 0]]}})
        )
        code, payload = run(capsys, "stable", str(path), "--max-m", "1000000000")
        assert code == 1
        assert payload == {"status": "not_stable_up_to", "m_max": 1000000000}


class TestDestabilize:
    def test_limit_supports_reported(self, capsys, unstable_file):
        code, payload = run(capsys, "destabilize", unstable_file)
        assert code == 1
        assert payload["witness"] == [1, -1]
        assert payload["limit_support_v"] == [[0, 1]]
        assert payload["limit_support_w"] == [[1, 0]]


    @pytest.mark.parametrize("command, other", [("check", "destabilize"),
                                                ("destabilize", "check")])
    def test_shares_a_body_with_check_but_does_not_call_it(
        self, capsys, monkeypatch, unstable_file, command, other
    ):
        """`main` runs the `cmd_*` attribute bound at call time, and a
        traced request must count under its own command: neither command
        goes through the other."""
        monkeypatch.setattr(stablepairs.cli, "cmd_" + other, None)
        code, payload = run(capsys, command, unstable_file)
        assert code == 1
        assert payload["witness"] == [1, -1]
        assert ("limit_support_v" in payload) == (command == "destabilize")


class TestRelinv:
    def test_certificate(self, capsys, semistable_file):
        code, payload = run(capsys, "relinv", semistable_file, "--chi", "1,0")
        assert code == 0
        assert payload["degree"] == 1
        assert payload["exponents"] == [[[1, 0], 1]]

    def test_chi_outside_support(self, capsys, semistable_file):
        code, payload = run(capsys, "relinv", semistable_file, "--chi", "0,1")
        assert code == 2

    def test_unstable_pair_reports_witness(self, capsys, unstable_file):
        code, payload = run(capsys, "relinv", unstable_file, "--chi", "1,0")
        assert code == 1
        assert payload["status"] == "unstable"

    def test_chi_outside_w_costs_no_second_lp(self, capsys, monkeypatch, tmp_path):
        """The verdict's weights certify chi: `relinv` solves the LPs of
        `check` and no more; without the verdict it would solve one more."""
        path = tmp_path / "mid.json"
        path.write_text(json.dumps(
            {"rank": 2, "v": {"support": [[1, 1]]}, "w": {"support": [[2, 0], [0, 2]]}}
        ))
        calls = []
        solve_lp = stablepairs.polytope.solve_lp

        def counting(*args):
            calls.append(1)
            return solve_lp(*args)

        def lps(*argv):
            calls.clear()
            out = run(capsys, *argv)
            return len(calls), out

        monkeypatch.setattr(stablepairs.polytope, "solve_lp", counting)
        check_lps, _ = lps("check", str(path))
        relinv_lps, (code, payload) = lps("relinv", str(path), "--chi", "1,1")
        assert code == 0
        assert payload["degree"] == 2
        assert payload["exponents"] == [[[0, 2], 1], [[2, 0], 1]]
        assert relinv_lps == check_lps
        relative_invariant = stablepairs.cli.relative_invariant
        monkeypatch.setattr(
            stablepairs.cli, "relative_invariant", lambda p, chi, verdict: relative_invariant(p, chi)
        )
        without_verdict_lps, (_, again) = lps("relinv", str(path), "--chi", "1,1")
        assert again == payload
        assert without_verdict_lps == relinv_lps + 1


class TestLimitAndExtend:
    def test_limit_found(self, capsys, unstable_file):
        code, payload = run(capsys, "limit", unstable_file, "--target", "[[1,0]]")
        assert code == 0
        u = payload["u"]
        assert u[0] < u[1]  # minimizes at (1,0) among {(1,0),(0,1)}

    def test_limit_infeasible(self, capsys, tmp_path):
        path = tmp_path / "mid.json"
        path.write_text(
            json.dumps(
                {
                    "rank": 2,
                    "Q": [[1, 0], [-1, 0], [0, 1], [0, -1]],
                    "v": {"support": [[0, 0], [1, 0], [-1, 0]]},
                    "w": {"support": [[0, 0]]},
                }
            )
        )
        code, payload = run(capsys, "limit", str(path), "--target", "[[1,0],[-1,0]]")
        assert code == 1
        assert payload == {"status": "not_a_limit_support"}

    def test_extend(self, capsys, unstable_file):
        code, payload = run(capsys, "extend", unstable_file, "--target", "[[1,0]]")
        assert code == 1
        assert payload == {"extends": False}


class TestEnergyCommand:
    def test_slope_reported(self, capsys, semistable_file):
        code, payload = run(capsys, "energy", semistable_file, "--ops", "1,-1", "--slope")
        assert code == 0
        assert payload["futaki_gen"] == -2
        assert abs(payload["slope"] - (-2)) < 1e-6

    def test_covector_checked_and_paired_once(self, capsys, monkeypatch, semistable_file):
        """`energy --at-t T --slope` checks and pairs u in one exact pass
        and builds one line for both answers, which are those of
        `futaki_gen`, `energy_along` and `asymptotic_slope`."""
        passes, lines = [], []
        real_pass, real_line = stablepairs.pairs._futaki_pairings, stablepairs.energy._Line.__init__

        def counted_pass(u, p):
            passes.append(tuple(u))
            return real_pass(u, p)

        for module in (stablepairs.pairs, stablepairs.energy):
            monkeypatch.setattr(module, "_futaki_pairings", counted_pass)
        monkeypatch.setattr(stablepairs.cli, "is_admissible", None)  # not called
        monkeypatch.setattr(stablepairs.energy._Line, "__init__",
                            lambda line, *args: lines.append(line) or real_line(line, *args))
        code, payload = run(capsys, "energy", semistable_file, "--ops", "1,-1", "--at-t", "0.5",
                            "--slope")
        assert code == 0
        assert passes == [(1, -1)] and len(lines) == 1
        monkeypatch.undo()
        pair = stablepairs.cli.load_pair(semistable_file)
        assert payload["futaki_gen"] == futaki_gen((1, -1), pair) == -2
        assert payload["energy_at_t"] == energy_along(pair, (1, -1), 0.5)
        assert payload["slope"] == asymptotic_slope(pair, (1, -1))

    @pytest.mark.parametrize("magnitude", ["1e20", "1e400"])
    def test_slope_with_far_apart_magnitudes(self, capsys, tmp_path, magnitude):
        # futaki_gen is 0 along (1): the w-term at 1 pairs higher, so the
        # slope is 0 however heavy that term is.
        path = tmp_path / "far.json"
        path.write_text(json.dumps({
            "rank": 1,
            "Q": [[-1], [1]],
            "v": {"support": [[0]]},
            "w": {"support": [[0], [1]], "magnitudes": ["1", magnitude]},
        }))
        code, payload = run(capsys, "energy", str(path), "--ops", "1", "--slope")
        assert code == 0
        assert payload["futaki_gen"] == 0
        assert abs(payload["slope"]) < 1e-15

    def test_futaki_of_a_covector_beyond_the_float_range(self, capsys, tmp_path):
        # The pairings of u are exact integers; they are rounded to floats
        # only for --at-t or --slope, so without them a pairing above 1e308
        # still gives the exact futaki_gen.
        path = tmp_path / "far.json"
        path.write_text(json.dumps({
            "rank": 1,
            "Q": [[-1], [1]],
            "v": {"support": [[0]]},
            "w": {"support": [[0], [1]]},
        }))
        u = -10**310
        code, payload = run(capsys, "energy", str(path), "--ops", str(u))
        assert code == 0
        assert payload["u"] == [u] and payload["futaki_gen"] == u
        assert "energy_at_t" not in payload and "slope" not in payload

    def test_infimum_flag_on_unstable_pair(self, capsys, unstable_file):
        code, payload = run(capsys, "energy", unstable_file, "--ops", "0,0", "--infimum")
        assert code == 0
        assert payload["infimum_estimate"] == "-inf"

    def test_inadmissible_ops(self, capsys, tmp_path):
        path = tmp_path / "sl.json"
        path.write_text(
            json.dumps(
                {
                    "rank": 2,
                    "constraints": [[1, 1]],
                    "Q": [[1, 0], [0, 1]],
                    "v": {"support": [[1, 0]]},
                    "w": {"support": [[1, 0], [0, 1]]},
                }
            )
        )
        code, payload = run(capsys, "energy", str(path), "--ops", "1,0")
        assert code == 2


class TestFutakiCommand:
    def test_report(self, capsys, semistable_file):
        code, payload = run(capsys, "futaki", semistable_file)
        assert code == 0
        assert payload["affine_span"] == "equal"
        assert payload["stabilizer_rank"] == len(payload["stabilizer_basis"])


class TestBinaryCommand:
    def test_unstable_with_point(self, capsys):
        code, payload = run(capsys, "binary", "--f", "1", "--g", "[0:1]^2 [1:0]")
        assert code == 1
        assert payload["violating_point"] == [0, 1]

    def test_semistable_with_oracle(self, capsys):
        code, payload = run(
            capsys, "binary", "--f", "1", "--g", "[0:1] [1:0] [1:1]", "--oracle"
        )
        assert code == 0
        assert payload["status"] == "semistable"

    def test_bad_form_syntax(self, capsys):
        code, payload = run(capsys, "binary", "--f", "wat", "--g", "1")
        assert code == 2

    def test_oracle_above_the_degree_cap_is_refused_before_any_expansion(
        self, capsys, monkeypatch
    ):
        def never(*args):
            raise AssertionError("torus_oracle_bf called")

        monkeypatch.setattr(stablepairs.binary_forms, "torus_oracle_bf", never)
        form = "[1:1]^800 [2:3]^800"
        start = time.perf_counter()
        code, payload = run(capsys, "binary", "--f", form, "--g", form, "--oracle")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and str(MAX_ORACLE_DEGREE) in payload["error"]
        # Without the oracle the root criterion still answers.
        assert run(capsys, "binary", "--f", form, "--g", form) == (0, {
            "status": "semistable", "e": 1600, "d": 1600,
        })

    def test_oracle_degree_cap_is_on_the_total_degree(self, capsys):
        # Distinct roots: one critical torus each, the most expansions per degree.
        g = " ".join(f"[{i}:1]" for i in range(MAX_ORACLE_DEGREE))
        assert run(capsys, "binary", "--f", "1", "--g", g, "--oracle")[0] == 0
        code, payload = run(capsys, "binary", "--f", "[1:0]", "--g", g, "--oracle")
        assert code == 2 and str(MAX_ORACLE_DEGREE) in payload["error"]

    @pytest.mark.parametrize("seed", range(6))
    def test_oracle_admits_benchmark_sized_forms(self, capsys, seed):
        # Degrees up to 8 on each side, as the `binary --oracle` requests of `bench/`.
        rng = random.Random(seed)
        f = random_binary_form(rng, rng.randint(0, 8))
        g = random_binary_form(rng, rng.randint(0, 8))
        code, payload = run(capsys, "binary", "--f", str(f), "--g", str(g), "--oracle")
        expected = stablepairs.binary_forms.semistable_bf(f, g).semistable
        assert code == (0 if expected else 1)
        assert payload["status"] == ("semistable" if expected else "unstable")


class TestVarietyCommand:
    def test_report(self, capsys):
        code, payload = run(
            capsys, "variety", "--n", "1", "--d", "2", "--mu", "1", "--N", "2"
        )
        assert code == 0
        assert payload["deg_resultant"] == 4
        assert payload["deg_hyperdiscriminant"] == 2
        assert payload["common_degree"] == 8
        assert payload["lambda_partition"] == [4, 4, 0]
        assert payload["mu_partition"] == [8, 0, 0]

    def test_genus_mismatch(self, capsys):
        code, payload = run(
            capsys, "variety", "--n", "1", "--d", "3", "--mu", "1/3", "--N", "2",
            "--genus", "1",
        )
        assert code == 2

    def test_n_above_the_cap_is_refused_before_any_arithmetic(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("degrees called above the cap")

        monkeypatch.setattr(stablepairs.cli, "degrees", fail)
        code, payload = run(
            capsys, "variety", "--n", "1", "--d", "2", "--mu", "1", "--N", str(MAX_VARIETY_N + 1)
        )
        assert code == 2
        assert "cap" in payload["error"]

    @pytest.mark.parametrize("mu", ["1e10000000", "1e99999999", "1e-99999999", "1/0"])
    def test_mu_is_parsed_under_the_magnitude_cap(self, capsys, mu):
        # Read as a bare `Fraction`, the first took about 10 s, the second
        # and third would build a 10^8-digit integer, and the last raised
        # ZeroDivisionError (exit 3).
        start = time.perf_counter()
        code, payload = run(capsys, "variety", "--n", "1", "--d", "2", "--mu", mu, "--N", "2")
        assert time.perf_counter() - start < 0.05
        assert code == 2 and "error" in payload

    def test_n_at_the_cap_is_accepted(self, capsys):
        n = MAX_VARIETY_N - 1
        code, payload = run(
            capsys, "variety", "--n", str(n), "--d", "2", "--mu", "0", "--N", str(MAX_VARIETY_N)
        )
        assert code == 0
        assert len(payload["lambda_partition"]) == MAX_VARIETY_N + 1

    def test_degrees_past_the_int_digit_limit_print_one_json_line(self, capsys):
        # The common degree of a 4300-digit d has twice as many digits, past
        # what Python converts to a string: an input error, not a torn line.
        code = main(["variety", "--n", "1", "--d", "9" * 4300, "--mu", "0", "--N", "2"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 2
        assert len(lines) == 1 and "error" in json.loads(lines[0])


class TestDispatch:
    def test_parser_is_built_once(self, capsys, semistable_file):
        stablepairs.cli.build_parser.cache_clear()
        assert run(capsys, "check", semistable_file)[0] == 0
        assert run(capsys, "extend", semistable_file, "--target", "[[1,0]]")[0] == 0
        assert stablepairs.cli.build_parser.cache_info().misses == 1

    def test_command_is_looked_up_at_call_time(self, capsys, monkeypatch, semistable_file):
        assert run(capsys, "check", semistable_file) == (0, {"status": "semistable"})
        monkeypatch.setattr(stablepairs.cli, "cmd_check", lambda args: 1)
        assert run(capsys, "check", semistable_file) == (1, None)

    def test_benchmark_requests_parse_as_through_the_top_level_parser(self, monkeypatch, tmp_path):
        """Every request of the `cli_mix` pools for seeds 1-3, parsed once by
        its subcommand's parser, gives the namespace of the two-pass parse."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        import workloads

        parser = stablepairs.cli.build_parser()
        commands = set()
        for seed in (1, 2, 3):
            workdir = tmp_path / str(seed)
            workdir.mkdir()
            for batch in workloads.CliMix().setup(random.Random(seed), str(workdir)):
                for item in batch:
                    argv = item["argv"]
                    assert vars(stablepairs.cli._parse_request(argv)) == vars(
                        parser.parse_args(argv)), argv
                    commands.add(argv[0])
        assert commands == set(workloads.CLI_COMMANDS)

    PARSER_EXITS = {
        "no_arguments": [],
        "help": ["-h"],
        "long_help_abbreviated": ["--he"],
        "command_help": ["check", "-h"],
        "help_after_the_file": ["energy", "FILE", "--ops=1,-1", "--h"],
        "unknown_command": ["frobnicate", "FILE"],
        "option_before_the_command": ["--ops", "1", "energy", "FILE"],
        "missing_problem_file": ["check"],
        "missing_chi": ["relinv", "FILE"],
        "missing_target": ["limit", "FILE"],
        "missing_ops": ["energy", "FILE", "--slope"],
        "max_m_not_an_int": ["stable", "FILE", "--max-m", "x"],
        "trailing_argument": ["check", "FILE", "extra"],
        "trailing_arguments_after_a_separator": ["extend", "FILE", "--target", "[]", "--", "a", "b"],
        "unknown_option": ["binary", "--f", "1", "--g", "1", "--bogus"],
        "variety_without_N": ["variety", "--n", "1", "--d", "2", "--mu", "1"],
    }

    @pytest.mark.parametrize("argv", PARSER_EXITS.values(), ids=PARSER_EXITS.keys())
    def test_help_and_errors_are_those_of_the_top_level_parser(self, capsys, argv):
        """`main` exits and writes as `build_parser().parse_args` does."""
        code = main(argv)
        dispatched = code, capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            stablepairs.cli.build_parser().parse_args(argv)
        expected = 0 if exc.value.code in (0, None) else 2
        assert dispatched == (expected, capsys.readouterr())
        assert dispatched[1].out if expected == 0 else dispatched[1].err


class TestHelp:
    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        assert "check" in capsys.readouterr().out

    def test_unknown_command_is_input_error(self, capsys):
        assert main(["frobnicate"]) == 2


class TestRoundTrip:
    def test_parse_serialize_identity(self):
        problem = StabilityProblem(2, [(1, 1)], [(1, 0), (0, 1)])
        from fractions import Fraction

        pair = Pair(
            WeightedVector([(1, 0)], [Fraction(2, 3)]),
            WeightedVector([(1, 0), (0, 1)], [Fraction(1), Fraction(5, 7)]),
            problem,
        )
        rebuilt = parse_problem(serialize_pair(pair))
        assert rebuilt == pair
        assert serialize_pair(rebuilt) == serialize_pair(pair)


# ---------------------------------------------------------------------------
# Fuzzing the CLI contract: exit code in {0, 1, 2, 3}, JSON out, no traceback.
# Ranks above the cap (17-80) and variety N above its cap must exit 2; the
# CLI does not yet cap other input-driven work, so accepted ranks and
# coordinates stay small.  `binary` and `variety` take no problem file.

_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-2, 2) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_ODD_COORD = st.sampled_from([True, False, 0.5, 2.0, "1", None, [], "1/2"])
_MAGNITUDE = st.integers(-1, 4) | st.sampled_from(
    ["1", "2/3", "1e400", "1/0", "-1", "0", "nan", "inf", "x", 1.5, None, True, 10**400]
)


@st.composite
def _problems(draw):
    if draw(st.integers(0, 7)) == 0:
        return draw(_JUNK)
    rank = draw(st.integers(1, 3) if draw(st.integers(0, 7)) else st.integers(17, 80))
    odd = draw(st.integers(0, 7))  # mostly well-formed, one flaw at a time
    coord = st.integers(-3, 3) | _ODD_COORD if odd == 0 else st.integers(-3, 3)
    length = st.integers(rank - 1, rank + 1) if odd == 1 else st.just(rank)

    def points(min_size=0):
        return st.lists(
            length.flatmap(lambda n: st.lists(coord, min_size=n, max_size=n)),
            min_size=min_size,
            max_size=5,
        )

    def vector():
        support = draw(points(min_size=1))
        out = {"support": support}
        if draw(st.booleans()):
            mags = st.integers(1, 4) | _MAGNITUDE if odd == 2 else st.integers(1, 4)
            out["magnitudes"] = draw(st.lists(mags, min_size=len(support), max_size=len(support)))
        return out

    bad_rank = st.sampled_from([0, -1, "2", 2.5, True, None])
    obj = {"rank": draw(bad_rank) if odd == 3 else rank, "v": vector(), "w": vector()}
    if rank >= 2 and draw(st.booleans()):
        obj["constraints"] = [[1] * rank]
    if odd == 4:
        obj["constraints"] = draw(points())
    if odd == 5:
        obj["Q"] = draw(points(min_size=1))
    if odd == 6:
        del obj[draw(st.sampled_from(["rank", "v", "w"]))]
    return obj


_TEXT = st.text(max_size=4)
_NO_FILE = ("binary", "variety")

# Root multiplicities reach past the oracle's degree cap, and variety N past
# its cap.
_FORM = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 20) | st.just(10**6)),
    max_size=4,
).map(lambda roots: " ".join(f"[{p}:{q}]^{m}" for p, q, m in roots) or "1") | _TEXT
_BINARY_ARGS = st.tuples(
    st.just("--f"), _FORM, st.just("--g"), _FORM
).flatmap(lambda args: st.sampled_from([list(args), [*args, "--oracle"]]))
_SMALL = st.integers(-1, 12).map(str) | _TEXT
_VARIETY_ARGS = st.tuples(
    st.just("--n"), _SMALL, st.just("--d"), _SMALL,
    st.just("--N"), _SMALL | st.integers(MAX_VARIETY_N + 1, 10**9).map(str),
    st.just("--mu"), st.sampled_from(["0", "1", "-1", "2/3", "-4/3", "1/0", "nan", "x", ""]),
).flatmap(lambda args: st.sampled_from(
    [list(args)] + [[*args, "--genus", str(g)] for g in (-1, 0, 1, 3, 10)]
))


@st.composite
def _requests(draw):
    """A problem object and an argument list, the arguments mostly drawn
    from the problem's own rank and support."""
    problem = draw(_problems())
    rank = problem.get("rank") if isinstance(problem, dict) else None
    rank = rank if type(rank) is int and 1 <= rank <= 3 else draw(st.integers(1, 3))
    try:
        support = [p for p in problem["v"]["support"] if isinstance(p, list)]
    except (KeyError, TypeError):
        support = []
    covector = st.lists(st.integers(-2, 2), min_size=rank, max_size=rank).map(
        lambda u: ",".join(map(str, u))
    )
    chosen = st.lists(st.sampled_from(support), min_size=1, max_size=3) if support else st.just([])
    command = draw(st.sampled_from(
        ["check", "stable", "destabilize", "relinv", "limit", "extend", "energy", "futaki",
         "binary", "variety"]
    ))
    if command in _NO_FILE:
        return None, [command, *draw(_BINARY_ARGS if command == "binary" else _VARIETY_ARGS)]
    extra = []
    if command == "stable":
        extra = ["--max-m", str(draw(st.integers(-1, 10) | st.just(10**9)))]
    elif command == "relinv":
        chi = chosen.map(lambda pts: ",".join(map(str, pts[0])) if pts else "")
        extra = ["--chi=" + draw(chi | covector | _TEXT)]
    elif command in ("limit", "extend"):
        extra = ["--target=" + draw(chosen.map(json.dumps) | _TEXT)]
    elif command == "energy":
        extra = ["--ops=" + draw(covector | _TEXT)]
        extra += draw(st.lists(st.sampled_from(["--slope", "--infimum"]), max_size=2, unique=True))
        if draw(st.booleans()):
            extra += ["--at-t", draw(st.sampled_from(["0.5", "1", "0", "2", "nan", "x"]))]
    return problem, [command, *extra]


def _int_or_none(text):
    try:
        return int(text)
    except ValueError:
        return None


@settings(max_examples=200, deadline=None)
@given(request=_requests())
def test_cli_contract_under_fuzzing(request):
    problem, argv = request
    with tempfile.TemporaryDirectory() as workdir:
        if argv[0] not in _NO_FILE:
            path = Path(workdir) / "problem.json"
            path.write_text(json.dumps(problem))
            argv = [argv[0], str(path), *argv[1:]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    rank = problem.get("rank") if isinstance(problem, dict) else None
    if type(rank) is int and rank > MAX_RANK:
        assert code == 2
    if argv[0] == "variety" and (_int_or_none(argv[argv.index("--N") + 1]) or 0) > MAX_VARIETY_N:
        assert code == 2
    assert "Traceback" not in out.getvalue() + err.getvalue()
    for line in out.getvalue().splitlines():
        payload = json.loads(line)
        if code == 1 and "witness" in payload:
            _assert_witness_destabilizes(payload["witness"], problem)


def test_witnesses_of_well_formed_problems_verify(tmp_path):
    """Every exit-1 witness of `check`, `destabilize` and `stable` re-checks
    in plain integers; the two base verdicts (the LP of `check`, the
    normals of `stable`) agree.  Well-formed problems reach far more
    witnesses than the fuzz test, most of whose draws carry a flaw."""
    rng = random.Random(1308)
    path = tmp_path / "problem.json"
    checked = 0
    for _ in range(70):
        rank = rng.randint(1, 3)

        def support():
            n = rng.randint(1, 6)
            return [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(n)]

        problem = {"rank": rank, "v": {"support": support()}, "w": {"support": support()}}
        if rank >= 2 and rng.random() < 0.5:
            problem["constraints"] = [[1] * rank]
        path.write_text(json.dumps(problem))
        statuses = {}
        for argv in (["check"], ["destabilize"], ["stable", "--max-m", "4"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main([argv[0], str(path), *argv[1:]])
            payload = json.loads(out.getvalue())
            statuses[argv[0]] = payload["status"]
            assert code in (0, 1)
            if code == 1 and "witness" in payload:
                _assert_witness_destabilizes(payload["witness"], problem)
                checked += 1
        assert statuses["check"] == statuses["destabilize"]
        assert (statuses["check"] == "unstable") == (statuses["stable"] == "unstable")
    assert checked >= 60


def _assert_witness_destabilizes(u, problem):
    """A printed witness, re-checked in plain integers against the problem
    file it came from: an admissible covector with a strict weight gap."""
    assert len(u) == problem["rank"] and all(type(c) is int for c in u)

    def pairing(a):
        return sum(x * y for x, y in zip(u, a, strict=True))

    assert all(pairing(c) == 0 for c in problem.get("constraints", []))
    v_weight = min(pairing(a) for a in problem["v"]["support"])
    assert min(pairing(b) for b in problem["w"]["support"]) > v_weight


@pytest.mark.slow
def test_shared_ambients_and_verdict_weights_leave_cli_output_unchanged(monkeypatch, tmp_path):
    """Every request of the benchmark's `cli_mix` pools for seeds 1-3 prints
    the same bytes and exits the same way as it does with every ambient
    rebuilt from scratch and `relinv` solving its own LP for chi."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    mix = workloads.CliMix()
    items = []
    for seed in (1, 2, 3):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        for batch in mix.setup(random.Random(seed), str(workdir)):
            items.extend(batch)
    shared = [mix.run(item) for item in items]

    pairs = stablepairs.pairs
    relative_invariant = stablepairs.cli.relative_invariant
    monkeypatch.setattr(pairs, "_context", pairs._context.__wrapped__)
    monkeypatch.setattr(pairs, "_reference_normals", pairs._reference_normals.__wrapped__)
    monkeypatch.setattr(
        stablepairs.cli, "relative_invariant", lambda p, chi, verdict=None: relative_invariant(p, chi)
    )
    rebuilt = [mix.run(item) for item in items]
    assert len(items) == 3 * 960
    assert {item["cmd"] for item in items} >= {"relinv", "stable"}
    assert shared == rebuilt
