"""Building points, point sets, weighted vectors and problems: what each
constructor rejects, and with which message, in the library and through
the CLI; the single pass over the points; repeated points; the kind check
of each exact covector entry."""

import dataclasses
import json
import sys
from fractions import Fraction

import pytest

import stablepairs.energy
import stablepairs.linalg
import stablepairs.pairs
from stablepairs import (
    Pair,
    PointSet,
    StabilityProblem,
    WeightedVector,
    cross_polytope,
    futaki_gen,
    limit_support,
    min_functional,
)
from stablepairs.cli import main, parse_weighted_vector
from stablepairs.lattice import lattice_point
from stablepairs.linalg import matrix_rank

NON_INTEGER = "non-integer lattice coordinate"
EMPTY = "a weighted vector needs a nonempty support"
LENGTH = "magnitudes do not match support points"
POSITIVE = "squared magnitudes must be strictly positive"
ON_SUPPORT = "magnitudes must be given exactly on the support"
INTERIOR = "reference polytope must contain 0 in its interior"
FULL_DIM = "reference polytope must be full-dimensional modulo the constraints"

# (id, constructor call, exception type, message): each input has one fault.
REJECTIONS = [
    ("point_bool", lambda: lattice_point((True, 0)), ValueError, f"{NON_INTEGER} True"),
    ("point_float", lambda: lattice_point((1, 1.5)), ValueError, f"{NON_INTEGER} 1.5"),
    ("point_integral_float", lambda: lattice_point((2.0,)), ValueError, f"{NON_INTEGER} 2.0"),
    ("point_str", lambda: lattice_point(("1",)), ValueError, f"{NON_INTEGER} '1'"),
    ("point_none", lambda: lattice_point((0, None)), ValueError, f"{NON_INTEGER} None"),
    ("point_fraction", lambda: lattice_point((3, Fraction(1, 2))), ValueError,
     "non-integral lattice coordinate 1/2"),
    ("point_not_iterable", lambda: lattice_point(5), TypeError, "'int' object is not iterable"),
    ("set_bool", lambda: PointSet([(0, 0), (False, 1)]), ValueError, f"{NON_INTEGER} False"),
    ("set_float", lambda: PointSet([(0.5, 1)]), ValueError, f"{NON_INTEGER} 0.5"),
    ("set_str", lambda: PointSet(["12"]), ValueError, f"{NON_INTEGER} '1'"),
    ("set_fraction", lambda: PointSet([(Fraction(3, 2),)]), ValueError,
     "non-integral lattice coordinate 3/2"),
    ("set_mixed_dimension", lambda: PointSet([(1, 0), (1,)]), ValueError,
     "points of mixed dimension"),
    ("vector_bool", lambda: WeightedVector([(True,)]), ValueError, f"{NON_INTEGER} True"),
    ("vector_float", lambda: WeightedVector([(1,), (1.5,)], [1, 2]), ValueError,
     f"{NON_INTEGER} 1.5"),
    ("vector_mapping_float", lambda: WeightedVector({(0.5,): 1}), ValueError,
     f"{NON_INTEGER} 0.5"),
    ("vector_fraction", lambda: WeightedVector([(Fraction(1, 3),)]), ValueError,
     "non-integral lattice coordinate 1/3"),
    ("vector_mixed_dimension", lambda: WeightedVector([(1, 0), (1,)]), ValueError,
     "points of mixed dimension"),
    ("vector_mapping_mixed_dimension", lambda: WeightedVector({(1, 0): 1, (1,): 1}),
     ValueError, "points of mixed dimension"),
    ("vector_empty", lambda: WeightedVector([]), ValueError, EMPTY),
    ("vector_empty_mapping", lambda: WeightedVector({}), ValueError, EMPTY),
    ("vector_empty_with_magnitudes", lambda: WeightedVector([], []), ValueError, EMPTY),
    ("vector_short_magnitudes", lambda: WeightedVector([(1, 0), (0, 1)], [1]), ValueError,
     LENGTH),
    ("vector_long_magnitudes", lambda: WeightedVector([(1,)], [1, 1]), ValueError, LENGTH),
    ("vector_conflicting_list", lambda: WeightedVector([(1,), (1,)], [1, 2]), ValueError,
     "conflicting magnitudes for support point (1,)"),
    ("vector_conflicting_after_check",
     lambda: WeightedVector([(2, 0), (Fraction(2), 0)], [1, 3]), ValueError,
     "conflicting magnitudes for support point (2, 0)"),
    ("vector_zero_magnitude", lambda: WeightedVector([(1,)], [0]), ValueError, POSITIVE),
    ("vector_negative_magnitude", lambda: WeightedVector([(1,), (2,)], [1, Fraction(-1, 2)]),
     ValueError, POSITIVE),
    ("vector_mapping_zero", lambda: WeightedVector({(1, 0): 0}), ValueError, POSITIVE),
    ("vector_magnitude_mapping_negative", lambda: WeightedVector([(1,)], {(1,): -3}),
     ValueError, POSITIVE),
    ("vector_bad_magnitude", lambda: WeightedVector([(1,)], ["x"]), ValueError,
     "Invalid literal for Fraction: 'x'"),
    ("vector_magnitudes_twice", lambda: WeightedVector({(1,): 1}, [1]), ValueError,
     "magnitudes given twice"),
    ("vector_magnitudes_twice_none_missing", lambda: WeightedVector({(1,): 1}, {(1,): 1}),
     ValueError, "magnitudes given twice"),
    ("vector_magnitudes_off_support", lambda: WeightedVector([(1,)], {(1,): 1, (3,): 1}),
     ValueError, ON_SUPPORT),
    ("vector_magnitudes_missing_a_point", lambda: WeightedVector([(1,), (2,)], {(1,): 1}),
     ValueError, ON_SUPPORT),
    ("problem_rank", lambda: StabilityProblem(0), ValueError, "rank must be positive"),
    ("problem_constraint_length", lambda: StabilityProblem(2, [(1, 1, 1)]), ValueError,
     "constraint covector has wrong length"),
    ("problem_constraint_float", lambda: StabilityProblem(2, [(0.5, 1)]), ValueError,
     f"{NON_INTEGER} 0.5"),
    ("problem_dependent_constraints", lambda: StabilityProblem(2, [(1, 1), (2, 2)]),
     ValueError, "quotient directions must be linearly independent"),
    ("problem_q_empty", lambda: StabilityProblem(2, [], []), ValueError,
     "reference polytope must be nonempty of the problem rank"),
    ("problem_q_wrong_rank", lambda: StabilityProblem(2, [], [(1, 0, 0), (-1, 0, 0)]),
     ValueError, "reference polytope must be nonempty of the problem rank"),
    ("problem_q_float", lambda: StabilityProblem(1, [], [(1,), (-0.5,)]), ValueError,
     f"{NON_INTEGER} -0.5"),
    ("problem_q_without_interior_origin", lambda: StabilityProblem(2, [], [(1, 0), (0, 1)]),
     ValueError, INTERIOR),
    ("problem_q_origin_on_the_boundary",
     lambda: StabilityProblem(2, [], [(0, 0), (1, 0), (0, 1)]), ValueError, INTERIOR),
    ("problem_q_flat", lambda: StabilityProblem(2, [], [(1, 0), (-1, 0)]), ValueError,
     FULL_DIM),
    ("problem_q_flat_modulo_constraints",
     lambda: StabilityProblem(3, [(1, 1, 1)], [(1, -1, 0), (-1, 1, 0)]), ValueError, FULL_DIM),
]


@pytest.mark.parametrize(
    "build, exc, message", [r[1:] for r in REJECTIONS], ids=[r[0] for r in REJECTIONS]
)
def test_rejections(build, exc, message):
    with pytest.raises(exc) as info:
        build()
    assert type(info.value) is exc
    assert str(info.value) == message


def _problem(**fields):
    base = {
        "rank": 2,
        "constraints": [],
        "v": {"support": [[1, 0]]},
        "w": {"support": [[1, 0], [0, 1], [-1, -1]]},
    }
    base.update(fields)
    return base


# (id, problem file, "error" of the JSON answer): exit code 2 for each.
CLI_REJECTIONS = [
    ("bool", _problem(v={"support": [[True, 0]]}), f"{NON_INTEGER} True"),
    ("float", _problem(w={"support": [[1, 0], [0, 1.5]]}), f"{NON_INTEGER} 1.5"),
    ("string", _problem(v={"support": [["1", 0]]}), f"{NON_INTEGER} '1'"),
    ("mixed_dimension", _problem(w={"support": [[1, 0], [1]]}), "points of mixed dimension"),
    ("empty_support", _problem(v={"support": []}), EMPTY),
    ("magnitudes_length", _problem(v={"support": [[1, 0]], "magnitudes": ["1", "2"]}),
     "magnitudes must be parallel to the support"),
    ("conflicting_magnitudes",
     _problem(v={"support": [[1, 0], [1, 0]], "magnitudes": ["1", "2"]}),
     "conflicting magnitudes for support point (1, 0)"),
    ("zero_magnitude", _problem(v={"support": [[1, 0]], "magnitudes": ["0"]}), POSITIVE),
    ("constraint_length", _problem(constraints=[[1, 1, 1]]),
     "constraint covector has wrong length"),
    ("dependent_constraints", _problem(constraints=[[1, 1], [2, 2]]),
     "quotient directions must be linearly independent"),
    ("q_without_interior_origin", _problem(Q=[[1, 0], [0, 1]]), INTERIOR),
    ("q_flat", _problem(Q=[[1, 0], [-1, 0]]), FULL_DIM),
    ("q_flat_modulo_constraints",
     _problem(rank=3, constraints=[[1, 1, 1]], Q=[[1, -1, 0], [-1, 1, 0]],
              v={"support": [[1, 0, 0]]}, w={"support": [[1, 0, 0]]}), FULL_DIM),
    # A falsy Q is a Q, not a request for the default cross polytope.
    ("q_empty", _problem(Q=[]), "reference polytope must be nonempty of the problem rank"),
    ("q_zero", _problem(Q=0), "'Q' must be a list"),
    ("q_false", _problem(Q=False), "'Q' must be a list"),
    ("q_empty_string", _problem(Q=""), "'Q' must be a list"),
    ("q_empty_object", _problem(Q={}), "'Q' must be a list"),
]


@pytest.mark.parametrize(
    "problem, message", [r[1:] for r in CLI_REJECTIONS], ids=[r[0] for r in CLI_REJECTIONS]
)
def test_cli_rejections(capsys, tmp_path, problem, message):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    assert main(["check", str(path)]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": message}


def _count_lattice_point_calls(monkeypatch):
    """A list that grows by one per `lattice_point` call, wherever bound."""
    calls = []
    original = lattice_point

    def counting(coords):
        calls.append(1)
        return original(coords)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "stablepairs" and module is not None:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counting)
    return calls


POINTS = [(3, -1, 0), (0, 2, 2), (-4, 0, 1), (1, 1, 1), (0, 0, -5)]


@pytest.mark.parametrize(
    "build",
    [
        lambda: WeightedVector(POINTS),
        lambda: WeightedVector([list(p) for p in POINTS], [Fraction(k, 2) for k in range(1, 6)]),
        lambda: WeightedVector(dict(zip(POINTS, ["1", "2/3", 4, Fraction(5), 0.5]))),
        lambda: parse_weighted_vector({"support": [list(p) for p in POINTS]}),
        lambda: parse_weighted_vector(
            {"support": [list(p) for p in POINTS], "magnitudes": ["1", "2", "3", "4", "5"]}
        ),
    ],
    ids=["list", "list_with_magnitudes", "mapping", "cli", "cli_with_magnitudes"],
)
def test_each_point_is_checked_once(monkeypatch, build):
    calls = _count_lattice_point_calls(monkeypatch)
    wv = build()
    assert len(calls) == len(POINTS) == len(wv.support)


def test_a_point_set_support_is_not_checked_again(monkeypatch):
    support = PointSet(POINTS)
    calls = _count_lattice_point_calls(monkeypatch)
    assert WeightedVector(support).support is support
    assert calls == []


class TestCovectorEntries:
    """Each exact covector entry checks u as a support point is checked,
    instead of pairing a float or a non-integral rational."""

    PAIR = Pair(WeightedVector([(1, 0)]), WeightedVector([(1, 0), (0, 1)]), StabilityProblem(2))
    ENTRIES = {
        "futaki_gen": lambda u: futaki_gen(u, TestCovectorEntries.PAIR),
        "limit_support": lambda u: limit_support(TestCovectorEntries.PAIR.w.support, u),
        "min_functional": lambda u: min_functional(TestCovectorEntries.PAIR.w.support, u),
    }

    @pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
    @pytest.mark.parametrize("u", [(0.5, 0), (2.0, -1), (Fraction(1, 2), 0)],
                             ids=["float", "integral_float", "fraction"])
    def test_a_covector_off_the_lattice_is_refused(self, entry, u):
        with pytest.raises(ValueError, match="lattice coordinate"):
            entry(u)

    @pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
    def test_an_integral_fraction_is_paired_as_an_int(self, entry):
        got = entry((Fraction(2), -1))
        assert got == entry((2, -1))
        if isinstance(got, PointSet):
            assert got.points == ((0, 1),)
        else:
            assert type(got) is int

    def test_a_subgroup_line_checks_its_covector_once(self, monkeypatch):
        calls = _count_lattice_point_calls(monkeypatch)
        line = stablepairs.energy._SubgroupLine(self.PAIR, (Fraction(2), -1))
        assert len(calls) == 1 and type(line.futaki) is int


class TestRepeatedPoints:
    """Inputs that are one point once checked: equal magnitudes merge,
    different ones raise, in every form of the constructor."""

    def test_conflicting_mapping_keys_raise(self):
        # Unequal keys, both (2, 0) once checked; before, the last one won.
        with pytest.raises(ValueError, match=r"conflicting magnitudes for support point \(2, 0\)"):
            WeightedVector({(2, 0): 1, range(2, -1, -2): 3})

    def test_conflicting_magnitude_mapping_keys_raise(self):
        with pytest.raises(ValueError, match="conflicting magnitudes"):
            WeightedVector([(2, 0)], {(2, 0): 1, range(2, -1, -2): 3})

    def test_equal_magnitudes_merge(self):
        for wv in (
            WeightedVector({(2, 0): 3, range(2, -1, -2): Fraction(3)}),
            WeightedVector([(2, 0)], {(2, 0): 3, range(2, -1, -2): "3"}),
            WeightedVector([(2, 0), (Fraction(2), 0)], [3, 3.0]),
        ):
            assert wv.support.points == ((2, 0),)
            assert wv.magnitudes == (Fraction(3),)

    def test_magnitudes_are_fractions(self):
        wv = WeightedVector([(0,), (1,), (2,)], [1, "1/2", 0.25])
        assert wv.magnitudes == (1, Fraction(1, 2), Fraction(1, 4))
        assert all(type(m) is Fraction for m in wv.magnitudes)
        assert all(type(m) is Fraction for m in WeightedVector([(0,), (1,)]).magnitudes)


def test_lattice_point_keeps_integer_tuples_and_converts_the_rest():
    assert lattice_point((4, -2)) == (4, -2)
    assert lattice_point(iter([1, Fraction(6, 3)])) == (1, 2)
    assert lattice_point([0]) == (0,)
    out = lattice_point((Fraction(-4, 2), 7))
    assert out == (-2, 7) and all(type(c) is int for c in out)


def test_cross_polytope_is_built_once_per_rank():
    q = cross_polytope(3)
    assert cross_polytope(3) is q
    assert q.points == tuple(sorted(
        tuple(s * (j == i) for j in range(3)) for i in range(3) for s in (1, -1)
    ))
    with pytest.raises(dataclasses.FrozenInstanceError):
        q.points = ()


def test_every_problem_runs_every_check(monkeypatch):
    """No problem is cached: each build asks both reference-polytope checks."""
    calls = []
    for module, name in ((stablepairs.pairs, "interior_contains"),
                         (stablepairs.linalg, "matrix_rank")):
        original = getattr(module, name)

        def counting(*args, _original=original, _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    for _ in range(2):
        StabilityProblem.free(2)
        StabilityProblem.special_linear(2)
    assert calls == ["interior_contains", "matrix_rank"] * 4


def test_equal_ambients_share_context_and_reference_normals():
    a = StabilityProblem(3, [(1, 1, 1)])
    b = StabilityProblem(3, [(1, 1, 1)])
    assert a.ctx is b.ctx and a.q_normals is b.q_normals
    other_constraint = StabilityProblem(3, [(1, -1, 0)])
    assert other_constraint.ctx is not a.ctx
    assert other_constraint.q_normals != a.q_normals
    other_q = StabilityProblem(3, [(1, 1, 1)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert other_q.ctx is a.ctx
    assert other_q.q_normals is not a.q_normals
    assert other_q.q_normals != a.q_normals


def test_rejected_ambient_raises_on_every_build():
    cached = stablepairs.pairs._context.cache_info().currsize
    for _ in range(3):
        with pytest.raises(ValueError, match="linearly independent"):
            StabilityProblem(2, [(1, 1), (2, 2)])
        with pytest.raises(ValueError, match=INTERIOR):
            StabilityProblem(2, [], [(1, 0), (0, 1)])
        with pytest.raises(ValueError, match=FULL_DIM):
            StabilityProblem(2, [], [(0, 0)])
    assert stablepairs.pairs._context.cache_info().currsize <= cached + 1


def test_ambient_memos_stay_bounded():
    for k in range(1, 101):
        problem = StabilityProblem(2, [(1, k)])
        assert problem.q_normals
    for memo in (stablepairs.pairs._context, stablepairs.pairs._reference_normals):
        info = memo.cache_info()
        assert info.maxsize == 64 and info.currsize <= 64


def test_matrix_rank_of_integer_rows_builds_no_fraction(monkeypatch):
    def no_fraction(*args):
        raise AssertionError("Fraction built")

    monkeypatch.setattr(stablepairs.linalg, "Fraction", no_fraction)
    assert matrix_rank([[1, 2, 3], [2, 4, 6], [0, 0, 1]]) == 2
    assert matrix_rank([[0, 0], [0, 0]]) == 0
    assert matrix_rank([]) == 0
