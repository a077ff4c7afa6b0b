import random
from fractions import Fraction

import pytest

from stablepairs import (
    Pair,
    StabilityProblem,
    WeightedVector,
    affine_span_test,
    futaki_classical,
    stabilizer_subtorus,
    stable,
    t_semistable,
)

from helpers import _o_in_span, random_pair

FREE2 = StabilityProblem.free(2)
SL_LIKE = StabilityProblem(2, [(1, 1)], [(1, 0), (0, 1)])


class TestStabilizerSubtorus:
    def test_two_point_supports_with_constraint(self):
        wv = WeightedVector([(1, 0), (0, 1)])
        assert stabilizer_subtorus(Pair(wv, wv, SL_LIKE)).rank == 0

    def test_singleton_supports_impose_nothing(self):
        p = Pair(WeightedVector([(1, 1)]), WeightedVector([(2, 2)]), FREE2)
        sub = stabilizer_subtorus(p)
        assert sub.rank == 2

    def test_full_dimensional_supports(self):
        v = WeightedVector([(0, 0), (1, 0), (0, 1)])
        p = Pair(v, v, FREE2)
        assert stabilizer_subtorus(p).rank == 0

    def test_basis_elements_are_constant_on_supports(self):
        rng = random.Random(12)
        for _ in range(20):
            p = random_pair(rng, rank=rng.randint(1, 3), max_points=4, lo=-3, hi=3)
            for u in stabilizer_subtorus(p).basis:
                for vec in (p.v, p.w):
                    vals = {sum(a * b for a, b in zip(u, q)) for q in vec.support}
                    assert len(vals) == 1


class TestFutakiClassical:
    def test_character_difference(self):
        p = Pair(WeightedVector([(1, 1)]), WeightedVector([(2, 2)]), FREE2)
        assert futaki_classical(p, (1, 0)) == 1
        assert futaki_classical(p, (0, 0)) == 0

    def test_vanishes_along_the_diagonal_quotient(self):
        p = Pair(WeightedVector([(1, 1)]), WeightedVector([(2, 2)]), SL_LIKE)
        assert futaki_classical(p, (1, -1)) == 0

    def test_rejects_non_stabilizing_covectors(self):
        p = Pair(WeightedVector([(1, 0), (0, 1)]), WeightedVector([(1, 0)]), FREE2)
        with pytest.raises(ValueError):
            futaki_classical(p, (1, 0))

    def test_covector_is_checked_as_futaki_gen_checks_it(self):
        """A covector off the lattice is refused, not paired in floats; an
        integral `Fraction` is paired as the int it equals."""
        p = Pair(WeightedVector([(1,)]), WeightedVector([(3,)]), StabilityProblem.free(1))
        with pytest.raises(ValueError, match="non-integer lattice coordinate"):
            futaki_classical(p, (0.5,))
        with pytest.raises(ValueError, match="length mismatch"):
            futaki_classical(p, (1, 0))
        value = futaki_classical(p, (Fraction(2),))
        assert value == 4 and type(value) is int


class TestAffineSpanTest:
    def test_disjoint_spans(self):
        p = Pair(
            WeightedVector([(1, 0), (0, 1)]),
            WeightedVector([(2, 0), (1, 1)]),
            FREE2,
        )
        assert not affine_span_test(p)

    def test_quotient_makes_them_equal(self):
        p = Pair(
            WeightedVector([(1, 0), (0, 1)]),
            WeightedVector([(2, 0), (1, 1)]),
            SL_LIKE,
        )
        assert affine_span_test(p)

    def test_equal_vectors(self):
        wv = WeightedVector([(3, -1), (0, 2)])
        assert affine_span_test(Pair(wv, wv, FREE2))

    def test_matches_the_offset_in_span_formulation(self):
        """The spans coincide iff the offset between the base points lies in
        the span of the within-support differences and the constraints,
        decided here by the independent `Fraction` oracle."""
        rng = random.Random(99)
        seen = {True: 0, False: 0}
        for _ in range(150):
            p = random_pair(rng, max_points=3, lo=-2, hi=2)
            rows = [list(c) for c in p.problem.constraints]
            for support in (p.v.support, p.w.support):
                base = support.points[0]
                rows += [[a - b for a, b in zip(q, base)] for q in support.points[1:]]
            offset = [b - a for b, a in zip(p.w.support.points[0], p.v.support.points[0])]
            expected = _o_in_span(rows, offset)
            assert affine_span_test(p) == expected, p
            seen[expected] += 1
        assert min(seen.values()) >= 20


class TestSemistableConsequences:
    def test_semistable_pairs_have_coinciding_spans_and_zero_character(self):
        rng = random.Random(777)
        seen = 0
        for _ in range(200):
            p = random_pair(rng)
            if not t_semistable(p).semistable:
                continue
            seen += 1
            assert affine_span_test(p)
            for u in stabilizer_subtorus(p).basis:
                assert futaki_classical(p, u) == 0
        assert seen > 20

    def test_stable_pairs_have_trivial_stabilizer(self):
        rng = random.Random(31415)
        stable_seen = 0
        for _ in range(80):
            p = random_pair(rng, rank=rng.randint(1, 3), max_points=6, lo=-3, hi=3)
            verdict = stable(p, 4)
            if verdict.is_stable:
                stable_seen += 1
                assert stabilizer_subtorus(p).rank == 0
        assert stable_seen >= 5

    def test_outputs_depend_only_on_supports(self):
        rng = random.Random(2)
        for _ in range(15):
            p = random_pair(rng, rank=2)
            reweighted = Pair(
                WeightedVector(p.v.support, {q: 7 for q in p.v.support}),
                WeightedVector(p.w.support, {q: 3 for q in p.w.support}),
                p.problem,
            )
            assert stabilizer_subtorus(p) == stabilizer_subtorus(reweighted)
            assert affine_span_test(p) == affine_span_test(reweighted)
