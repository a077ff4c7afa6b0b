import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import stablepairs.cli
from stablepairs import Pair, StabilityProblem, WeightedVector
from stablepairs.cli import MAX_RANK, main, parse_problem, serialize_pair


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


class TestExitCodes:
    def test_overflowing_magnitude_is_input_error(self, capsys, tmp_path):
        big = tmp_path / "big.json"
        big.write_text(
            json.dumps(
                {
                    "rank": 2,
                    "v": {"support": [[0, 0]], "magnitudes": ["1e400"]},
                    "w": {"support": [[0, 0], [1, 0]]},
                }
            )
        )
        code, payload = run(capsys, "energy", str(big), "--ops", "1,0", "--slope")
        assert code == 2
        assert "error" in payload

    def test_internal_failure_has_its_own_code(self, capsys, monkeypatch, semistable_file):
        def broken(pair):
            raise RuntimeError("internal: simulated")

        monkeypatch.setattr(stablepairs.cli, "t_semistable", broken)
        code, payload = run(capsys, "check", semistable_file)
        assert code == 3
        assert payload == {"error": "RuntimeError: internal: simulated"}


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
# Ranks above the cap (17-80) must exit 2; the CLI does not yet cap other
# input-driven work, so accepted ranks and coordinates stay small.

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
        ["check", "stable", "destabilize", "relinv", "limit", "extend", "energy", "futaki"]
    ))
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


@settings(max_examples=150, deadline=None)
@given(request=_requests())
def test_cli_contract_under_fuzzing(request):
    problem, argv = request
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "problem.json"
        path.write_text(json.dumps(problem))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], str(path), *argv[1:]])
    assert code in (0, 1, 2, 3)
    rank = problem.get("rank") if isinstance(problem, dict) else None
    if type(rank) is int and rank > MAX_RANK:
        assert code == 2
    assert "Traceback" not in out.getvalue() + err.getvalue()
    for line in out.getvalue().splitlines():
        json.loads(line)
