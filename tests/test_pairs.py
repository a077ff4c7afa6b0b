import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import stablepairs.linprog
import stablepairs.pairs
import stablepairs.polytope
from stablepairs import (
    Pair,
    PointSet,
    StabilityProblem,
    StableVerdict,
    Verdict,
    WeightedVector,
    certificate_normals,
    check_relative_invariant,
    contains_point,
    convex_combination,
    degree_of,
    futaki_gen,
    interior_contains,
    minkowski_sum,
    perturb,
    relative_invariant,
    scale,
    stable,
    t_semistable,
)

from helpers import (
    _o_in_span,
    brute_hull_contains,
    facet_weight_semistable,
    magnitude_of,
    random_pair,
    scan_degree,
    scan_stable,
    weight,
)

FREE2 = StabilityProblem.free(2)
SL_LIKE = StabilityProblem(2, [(1, 1)], [(1, 0), (0, 1)])


class TestProblemValidation:
    def test_special_linear_defaults(self):
        prob = StabilityProblem.special_linear(2)
        assert prob.rank == 3
        assert prob.constraints == ((1, 1, 1),)
        assert len(prob.q_polytope) == 3

    def test_special_linear_reference_is_the_standard_simplex(self):
        """The reference is conv(e_0, e_1, e_2), not its complement vectors
        1 - e_i, which modulo the diagonal are -e_i: there e_0 would need
        degree 2."""
        prob = StabilityProblem.special_linear(2)
        assert prob.q_polytope.points == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
        assert degree_of(WeightedVector([(1, 0, 0)]), prob) == 1

    @pytest.mark.parametrize("v, w", [([(1, 0)], [(1,)]), ([(1,)], [(1, 0)])],
                             ids=["w", "v"])
    def test_a_pair_refuses_one_support_of_another_rank(self, v, w):
        with pytest.raises(ValueError, match="does not match the problem rank"):
            Pair(WeightedVector(v), WeightedVector(w), FREE2)

    def test_reference_polytope_needs_zero_interior(self):
        with pytest.raises(ValueError):
            StabilityProblem(2, [], [(1, 0), (0, 1)])

    def test_reference_polytope_needs_full_dimension(self):
        with pytest.raises(ValueError):
            StabilityProblem(2, [], [(1, 0), (-1, 0)])
        # same polytope is fine once the quotient removes a dimension
        StabilityProblem(2, [(0, 1)], [(1, 0), (-1, 0)])

    def test_dependent_constraints_rejected(self):
        with pytest.raises(ValueError):
            StabilityProblem(2, [(1, 1), (2, 2)])


class TestWeightedVector:
    def test_magnitudes_default_to_one(self):
        wv = WeightedVector([(1, 0), (0, 1)])
        assert wv.magnitudes == (Fraction(1), Fraction(1))

    def test_mapping_constructor(self):
        wv = WeightedVector({(0, 1): Fraction(1, 2), (1, 0): 3})
        assert magnitude_of(wv, (0, 1)) == Fraction(1, 2)

    def test_positive_magnitudes_enforced(self):
        with pytest.raises(ValueError):
            WeightedVector({(1, 0): 0})

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            WeightedVector([])


class TestWeight:
    def test_examples(self):
        assert weight((1, -1), WeightedVector([(2, 0), (0, 2)])) == -2
        assert weight((0, 0), WeightedVector([(2, 0), (0, 2)])) == 0
        assert weight((0, 1), WeightedVector([(1, 0), (0, 1), (1, 1)])) == 0

    def test_inadmissible_rejected(self):
        with pytest.raises(ValueError):
            weight((1, 0), WeightedVector([(1, 0)]), [(1, 1)])


def _count_lps(monkeypatch):
    """A list that grows by one per `solve_lp` call while the test runs."""
    calls = []
    solve_lp = stablepairs.linprog.solve_lp

    def counting(*args, **kwargs):
        calls.append(1)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(stablepairs.linprog, "solve_lp", counting)
    monkeypatch.setattr(stablepairs.polytope, "solve_lp", counting)
    return calls


@pytest.fixture
def fresh_reference_normals():
    """An empty reference-normals memo, emptied again afterwards, so that
    nothing computed under a patched `certificate_normals` stays cached."""
    memo = stablepairs.pairs._reference_normals
    memo.cache_clear()
    yield
    memo.cache_clear()


def assert_weights_certify(p, verdict):
    """The test's own check of a semistable verdict's weights: one entry per
    v-point outside the w-support, each nonnegative, summing to one, and
    combining the w-points to that v-point modulo the constraints."""
    w = p.w.support.points
    assert verdict.weights.keys() == {a for a in p.v.support if a not in p.w.support}
    for chi, lam in verdict.weights.items():
        assert len(lam) == len(w) and all(x >= 0 for x in lam) and sum(lam) == 1
        combo = [sum(x * b[i] for x, b in zip(lam, w)) for i in range(p.problem.rank)]
        assert _o_in_span(p.problem.constraints, [c - x for c, x in zip(combo, chi)])


class TestTSemistable:
    def test_vertex_containment(self):
        p = Pair(WeightedVector([(1, 0)]), WeightedVector([(1, 0), (0, 1)]), FREE2)
        assert t_semistable(p).semistable

    def test_witness_on_escape(self):
        p = Pair(WeightedVector([(1, 0), (0, 1)]), WeightedVector([(1, 0)]), FREE2)
        verdict = t_semistable(p)
        assert not verdict.semistable
        u = verdict.witness
        assert weight(u, p.w) > weight(u, p.v)

    def test_equal_supports(self):
        wv = WeightedVector([(2, 1), (-1, 3)])
        assert t_semistable(Pair(wv, wv, FREE2)).semistable

    def test_quotient_changes_the_verdict(self):
        v = WeightedVector([(0, 0)])
        w = WeightedVector([(1, 0), (0, 1)])
        assert not t_semistable(Pair(v, w, FREE2)).semistable
        assert t_semistable(Pair(v, w, SL_LIKE)).semistable

    def test_one_lp_per_v_point_outside_the_w_support(self, monkeypatch):
        calls = _count_lps(monkeypatch)
        rng = random.Random(31)
        for _ in range(60):
            p = random_pair(rng)
            calls.clear()
            verdict = t_semistable(p)
            outside = [a for a in p.v.support if a not in p.w.support]
            assert len(calls) <= len(outside)
            if verdict.semistable:
                assert len(calls) == len(outside)

    def test_context_built_once(self):
        assert SL_LIKE.ctx is SL_LIKE.ctx
        assert SL_LIKE.ctx.mod_directions == ((1, 1),)

    def test_semistable_weights_pass_an_exact_check(self):
        rng = random.Random(47)
        semistable = constrained = 0
        for _ in range(300):
            p = random_pair(rng)
            verdict = t_semistable(p)
            if verdict.semistable:
                assert_weights_certify(p, verdict)
                semistable += 1
                constrained += bool(p.problem.constraints) and bool(verdict.weights)
            else:
                assert verdict.weights == {}
        assert semistable >= 30 and constrained >= 5

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_semistable_weights_pass_an_exact_check_on_drawn_pairs(self, data):
        rank = data.draw(st.integers(1, 3))
        cons = [(1,) * rank] if rank >= 2 and data.draw(st.booleans()) else []
        coords = st.tuples(*[st.integers(-3, 3)] * rank)
        v, w = (data.draw(st.sets(coords, min_size=1, max_size=6)) for _ in range(2))
        p = Pair(WeightedVector(v), WeightedVector(w), StabilityProblem(rank, cons))
        verdict = t_semistable(p)
        if verdict.semistable:
            assert_weights_certify(p, verdict)

    def test_weights_take_no_part_in_equality_or_repr(self):
        p = Pair(WeightedVector([(1, 1)]), WeightedVector([(2, 0), (0, 2)]), FREE2)
        verdict = t_semistable(p)
        assert verdict.weights == {(1, 1): (Fraction(1, 2), Fraction(1, 2))}
        assert verdict == Verdict(True) and hash(verdict) == hash(Verdict(True))
        assert repr(verdict) == "Verdict(semistable=True, witness=None)"

    @pytest.mark.parametrize(
        "w, chi, wrong",
        [
            ([(2, 0), (0, 2)], (1, 1), [1, 0]),  # combines to the wrong point
            ([(0, 0), (2, 0), (4, 0)], (1, 0), [Fraction(1, 4), 1, Fraction(-1, 4)]),
        ],
        ids=["wrong-point", "negative-weight"],
    )
    def test_wrong_lp_weights_raise(self, monkeypatch, w, chi, wrong):
        real = stablepairs.polytope.solve_lp

        def mutant(*args):
            res = real(*args)
            res.x = [Fraction(x) for x in wrong]
            return res

        monkeypatch.setattr(stablepairs.polytope, "solve_lp", mutant)
        p = Pair(WeightedVector([chi]), WeightedVector(w), FREE2)
        with pytest.raises(RuntimeError, match="convex weights"):
            t_semistable(p)
        with pytest.raises(RuntimeError, match="convex weights"):
            convex_combination(p.w.support, chi)
        with pytest.raises(RuntimeError, match="convex weights"):
            relative_invariant(p, chi)


class TestDegree:
    def test_examples(self):
        assert degree_of(WeightedVector([(0, 0)]), FREE2) == 1
        assert degree_of(WeightedVector([(2, 0)]), FREE2) == 2
        assert degree_of(WeightedVector([(1, 1)]), FREE2) == 2

    def test_quotient_degree(self):
        prob = StabilityProblem.special_linear(1)
        # (3, 1) is (1, -1)-ish modulo the diagonal: fits in 2Q but not Q
        assert degree_of(WeightedVector([(3, 1)]), prob) == 2

    def test_reference_normals_computed_at_most_once_per_ambient(
        self, monkeypatch, fresh_reference_normals
    ):
        real = stablepairs.pairs.certificate_normals
        seen = []
        monkeypatch.setattr(
            stablepairs.pairs, "certificate_normals", lambda A, *a: seen.append(A) or real(A, *a)
        )
        first, second = StabilityProblem.free(3), StabilityProblem.free(3)
        assert degree_of(WeightedVector([(2, 1, 0)]), first) == 3
        assert degree_of(WeightedVector([(0, -3, 1)]), second) == 4
        assert degree_of(WeightedVector([(1, 1, 1)]), first) == 3
        assert seen == [first.q_polytope]


class TestPerturb:
    def test_point_v_keeps_reference(self):
        p = Pair(WeightedVector([(0, 0)]), WeightedVector([(1, 0), (0, 1)]), FREE2)
        out = perturb(p, 1, 1)
        assert out.v.support == FREE2.q_polytope
        assert out.w.support.points == ((0, 2), (2, 0))

    def test_hull_generators(self):
        # simplex reference (valid modulo the diagonal) against a shifted point
        p = Pair(WeightedVector([(1, 0)]), WeightedVector([(1, 0)]), SL_LIKE)
        out = perturb(p, 1, 1)
        assert out.v.support.points == ((1, 1), (2, 0))
        assert out.v.support == minkowski_sum(PointSet([(1, 0), (0, 1)]), PointSet([(1, 0)]))

    def test_w_side_scaling_law(self):
        rng = random.Random(0)
        for _ in range(10):
            p = random_pair(rng, rank=2)
            m = rng.randint(1, 3)
            out = perturb(p, m, 1)
            assert out.w.support == scale(p.w.support, m + 1)

    def test_rejects_bad_exponent(self):
        p = Pair(WeightedVector([(0, 0)]), WeightedVector([(1, 0)]), FREE2)
        with pytest.raises(ValueError):
            perturb(p, 0, 1)


class TestStable:
    def test_stable_at_one(self):
        w = WeightedVector([(1, 0), (-1, 0), (0, 1), (0, -1)])
        verdict = stable(Pair(WeightedVector([(0, 0)]), w, FREE2), 5)
        assert verdict == StableVerdict.stable(1)

    def test_m_max_must_be_at_least_one(self):
        w = WeightedVector([(1, 0), (-1, 0), (0, 1), (0, -1)])
        p = Pair(WeightedVector([(0, 0)]), w, FREE2)
        with pytest.raises(ValueError, match="m_max must be >= 1"):
            stable(p, 0)
        assert stable(p, 1) == StableVerdict.stable(1)

    def test_semistable_but_never_stable(self):
        w = WeightedVector([(0, 0), (1, 0)])
        verdict = stable(Pair(WeightedVector([(0, 0)]), w, FREE2), 6)
        assert verdict.status == StableVerdict.NOT_STABLE_UP_TO

    def test_unstable_base_short_circuits(self):
        p = Pair(WeightedVector([(1, 0), (0, 1)]), WeightedVector([(1, 0)]), FREE2)
        verdict = stable(p, 3)
        assert verdict.status == StableVerdict.UNSTABLE_BASE
        assert weight(verdict.witness, p.w) > weight(verdict.witness, p.v)

    def test_point_pair_never_stable_with_or_without_quotient(self):
        # equal singleton supports: the perturbed v side grows a reference
        # polytope the w side cannot absorb, in both context variants
        prob_con = StabilityProblem(2, [(1, 1)], [(1, 0), (-1, 0)])
        wv = WeightedVector([(1, 0)])
        assert stable(Pair(wv, wv, prob_con), 4).status == StableVerdict.NOT_STABLE_UP_TO
        assert stable(Pair(wv, wv, FREE2), 4).status == StableVerdict.NOT_STABLE_UP_TO



NEVER_STABLE = Pair(WeightedVector([(0, 0)]), WeightedVector([(0, 0), (1, 0)]), FREE2)
# exponent 3, fixed by the normal (-1,) alone
EXPONENT_THREE = Pair(
    WeightedVector([(-2,)]), WeightedVector([(-3,), (-1,)]), StabilityProblem.free(1)
)


def _closed_form_instances(rng):
    """(kind, pair) over ranks 1-4, free and constrained problems."""
    for _ in range(70):
        p = random_pair(rng, max_points=5, lo=-3, hi=3)
        yield ("constrained" if p.problem.constraints else "free"), p
    for _ in range(30):  # v inside a w-box: semistable, often stable at m > 1
        rank = rng.randint(1, 4)
        cons = [(1,) * rank] if rank >= 2 and rng.random() < 0.5 else []
        w = {tuple(rng.choice((-3, 3)) for _ in range(rank)) for _ in range(2 ** rank)}
        w |= {tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(2)}
        v = {tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(rng.randint(1, 3))}
        yield "boxed", Pair(WeightedVector(v), WeightedVector(w), StabilityProblem(rank, cons))
    for _ in range(10):  # 0 on a facet of w: semistable, never stable
        rank = rng.randint(1, 3)
        w = {(0,) * rank} | {
            (rng.randint(0, 3),) + tuple(rng.randint(-3, 3) for _ in range(rank - 1))
            for _ in range(rng.randint(1, 5))
        }
        yield "never", Pair(WeightedVector([(0,) * rank]), WeightedVector(w), StabilityProblem.free(rank))
    for _ in range(20):  # a skewed reference polytope: min_Q(u) != -1
        rank = rng.randint(1, 3)
        q_pts = [tuple(s * rng.randint(1, 3) * (j == i) for j in range(rank))
                 for i in range(rank) for s in (1, -1)]
        q_pts += [tuple(rng.randint(-3, 3) for _ in range(rank))]
        v = {tuple(rng.randint(-4, 4) for _ in range(rank)) for _ in range(rng.randint(1, 2))}
        w = {tuple(rng.randint(-5, 5) for _ in range(rank)) for _ in range(rng.randint(2, 5))}
        prob = StabilityProblem.free(rank, q_pts)
        yield "skewed", Pair(WeightedVector(v), WeightedVector(w | v), prob)
    for _ in range(6):  # constraints spanning the lattice
        rank = rng.randint(1, 2)
        prob = StabilityProblem(rank, [(1,)] if rank == 1 else [(1, 0), (0, 1)], [(0,) * rank])
        pts = [tuple(rng.randint(-4, 4) for _ in range(rank)) for _ in range(2)]
        yield "collapsed", Pair(WeightedVector([pts[0]]), WeightedVector([pts[1]]), prob)


class TestClosedForms:
    """`degree_of` and `stable` read their answers off certificate normals;
    the k- and m-scans over the half-space oracle are the ground truth."""

    def test_agree_with_scan_oracles(self):
        rng = random.Random(8128)
        seen = {}
        above_one = 0
        for kind, p in _closed_form_instances(rng):
            cons = p.problem.constraints
            q_pts = p.problem.q_polytope.points
            assert degree_of(p.v, p.problem) == scan_degree(p.v.support.points, q_pts, cons)
            m_max = 6
            verdict = stable(p, m_max)
            status, exponent = scan_stable(p, m_max)
            assert (verdict.status, verdict.exponent) == (status, exponent)
            if status == StableVerdict.UNSTABLE_BASE:
                u = verdict.witness
                assert weight(u, p.w, cons) > weight(u, p.v, cons)
            if status == StableVerdict.NOT_STABLE_UP_TO:
                assert verdict.m_max == m_max
            seen[kind, status] = seen.get((kind, status), 0) + 1
            above_one += bool(exponent and exponent > 1)
        assert seen["never", StableVerdict.NOT_STABLE_UP_TO] == 10
        assert seen["collapsed", StableVerdict.STABLE] == 6
        for kind in ("free", "constrained"):
            assert seen.get((kind, StableVerdict.UNSTABLE_BASE), 0) >= 5
        assert seen.get(("boxed", StableVerdict.STABLE), 0) >= 10
        assert seen.get(("skewed", StableVerdict.STABLE), 0) >= 3
        assert sum(n for (_, s), n in seen.items() if s == StableVerdict.STABLE) >= 20
        assert above_one >= 3

    def test_exponent_above_one(self):
        assert stable(EXPONENT_THREE, 3) == StableVerdict.stable(3)
        assert stable(EXPONENT_THREE, 2) == StableVerdict.not_stable_up_to(2)
        assert scan_stable(EXPONENT_THREE, 3) == (StableVerdict.STABLE, 3)

    def test_never_stable_is_settled_before_the_degree(self, monkeypatch):
        """A normal with a = 0 and weight(u, w) >= 0 has b > 0 at every
        degree, so no degree (and no LP) is computed; a base-unstable pair
        with such a normal still reports its destabilizer."""
        calls = _count_lps(monkeypatch)
        degrees = []
        real = stablepairs.pairs.degree_of
        monkeypatch.setattr(
            stablepairs.pairs, "degree_of", lambda *a: degrees.append(a) or real(*a)
        )
        assert stable(NEVER_STABLE, 4) == StableVerdict.not_stable_up_to(4)
        assert calls == [] and degrees == []
        # (1, 0) has a = 0 and weight 0 on w; (0, 1) destabilizes.
        p = Pair(WeightedVector([(0, 0), (0, -1)]), WeightedVector([(0, 0), (1, 0)]), FREE2)
        assert futaki_gen((1, 0), p) == 0 and weight((1, 0), p.w) == 0
        verdict = stable(p, 4)
        assert verdict.status == StableVerdict.UNSTABLE_BASE
        assert futaki_gen(verdict.witness, p) > 0
        assert calls == [] and degrees == []

    def test_lp_count_does_not_grow_with_m_max(self, monkeypatch):
        calls = _count_lps(monkeypatch)
        rng = random.Random(5)
        pairs = [NEVER_STABLE, EXPONENT_THREE] + [
            random_pair(rng, max_points=5, lo=-3, hi=3) for _ in range(30)
        ]
        assert stable(NEVER_STABLE, 10**9) == StableVerdict.not_stable_up_to(10**9)
        compared = 0
        for p in pairs:
            counts = []
            for m_max in (4, 10**9):
                calls.clear()
                verdict = stable(p, m_max)
                counts.append(len(calls))
            if verdict.is_stable and verdict.exponent > 4:
                continue  # stable(p, 4) stops before the confirming check
            assert counts[0] == counts[1]
            compared += 1
        assert compared >= 25

    def test_dropped_normal_is_caught(self, monkeypatch, fresh_reference_normals):
        real = stablepairs.pairs.certificate_normals
        monkeypatch.setattr(
            stablepairs.pairs, "certificate_normals", lambda A, ctx: real(A, ctx)[1:]
        )
        with pytest.raises(RuntimeError):
            stable(EXPONENT_THREE, 10)
        with pytest.raises(RuntimeError):
            # a fresh problem and an empty memo: the normals are enumerated here
            degree_of(WeightedVector([(2, 1)]), StabilityProblem.free(2))


class TestStableBaseOnNormals:
    """`stable` reads its base verdict off the certificate normals of W; the
    containment LP of `t_semistable` runs only to confirm an exponent."""

    def test_t_semistable_runs_only_to_confirm(self, monkeypatch):
        calls = []
        real = stablepairs.pairs.t_semistable
        monkeypatch.setattr(
            stablepairs.pairs, "t_semistable", lambda p: calls.append(p) or real(p)
        )
        seen = {}
        for _, p in _closed_form_instances(random.Random(271)):
            calls.clear()
            verdict = stable(p, 6)
            expected = 1 if verdict.is_stable else 0
            assert len(calls) == expected, verdict
            seen[verdict.status] = seen.get(verdict.status, 0) + 1
        assert seen[StableVerdict.STABLE] >= 20
        assert seen[StableVerdict.NOT_STABLE_UP_TO] >= 10
        assert seen[StableVerdict.UNSTABLE_BASE] >= 10

    def test_unstable_witness_is_a_normal_with_a_weight_gap(self):
        rng = random.Random(1308)
        kinds = {False: 0, True: 0}
        while min(kinds.values()) < 25:
            p = random_pair(rng, max_points=6, lo=-4, hi=4)
            verdict = stable(p, 4)
            if verdict.status != StableVerdict.UNSTABLE_BASE:
                continue
            cons = p.problem.constraints
            u = verdict.witness
            assert u in certificate_normals(p.w.support, p.problem.ctx)
            assert weight(u, p.w, cons) > weight(u, p.v, cons)
            assert not t_semistable(p).semistable
            kinds[bool(cons)] += 1
        assert sum(kinds.values()) >= 50

    @pytest.mark.parametrize(
        "v, w, expected",
        [
            ([(0, 0), (-1, 2)], [(2, 0), (0, 2), (-2, -2)], StableVerdict.unstable_base((2, -1))),
            ([(0, 0), (1, 1)], [(2, 0), (0, 2), (-1, -1)], StableVerdict.stable(2)),
        ],
        ids=["unstable_third_normal", "semistable_exponent_two"],
    )
    def test_one_exact_pass_per_normal(self, monkeypatch, v, w, expected):
        """Each normal, up to the witness, takes one `_futaki_pairings`
        pass, which both the base verdict and the exponent loop read;
        `pairs` has no separate `weight` pass left to make."""
        p = Pair(WeightedVector(v), WeightedVector(w), FREE2)
        normals = certificate_normals(p.w.support, p.problem.ctx)
        passes = []
        real = stablepairs.pairs._futaki_pairings
        monkeypatch.setattr(
            stablepairs.pairs, "_futaki_pairings", lambda u, p: passes.append(u) or real(u, p)
        )
        assert not hasattr(stablepairs.pairs, "weight")
        assert stable(p, 6) == expected
        upto = normals.index(expected.witness) + 1 if expected.witness else len(normals)
        assert len(normals) == 3 and passes == list(normals[:upto])


class TestCollapsedQuotient:
    """Constraints spanning the whole lattice collapse the quotient to a
    point: every pair is semistable and stable there, with no certificate
    normals left to test."""

    def test_rank_one_collapse(self):
        prob = StabilityProblem(1, [(1,)], [(0,)])
        p = Pair(WeightedVector([(5,)]), WeightedVector([(-3,)]), prob)
        assert t_semistable(p).semistable
        assert certificate_normals(p.w.support, prob.ctx) == ()
        assert degree_of(p.v, prob) == 1
        assert stable(p, 3) == StableVerdict.stable(1)

    def test_rank_two_collapse(self):
        prob = StabilityProblem(2, [(1, 0), (0, 1)], [(0, 0)])
        p = Pair(WeightedVector([(9, -4)]), WeightedVector([(1, 1)]), prob)
        assert t_semistable(p).semistable


class TestFutakiGen:
    def test_examples(self):
        p = Pair(WeightedVector([(1, 0)]), WeightedVector([(1, 0), (0, 1)]), FREE2)
        assert futaki_gen((1, -1), p) == -2
        assert futaki_gen((0, 0), p) == 0

    def test_positive_on_witness(self):
        p = Pair(WeightedVector([(1, 0), (0, 1)]), WeightedVector([(1, 0)]), FREE2)
        verdict = t_semistable(p)
        assert futaki_gen(verdict.witness, p) > 0


class TestRelativeInvariant:
    def test_chi_is_a_w_vertex(self):
        p = Pair(WeightedVector([(1, 0)]), WeightedVector([(1, 0), (0, 1)]), FREE2)
        assert relative_invariant(p, (1, 0)) == (1, {(1, 0): 1})

    def test_midpoint_needs_degree_two(self):
        p = Pair(WeightedVector([(1, 1)]), WeightedVector([(2, 0), (0, 2)]), FREE2)
        d, exponents = relative_invariant(p, (1, 1))
        assert d == 2
        assert exponents == {(2, 0): 1, (0, 2): 1}
        assert check_relative_invariant(p, (1, 1), d, exponents)

    def test_w_support_character_always_has_degree_one(self):
        # even when a longer convex combination also reaches chi
        p = Pair(
            WeightedVector([(1, 1)]),
            WeightedVector([(1, 1), (2, 0), (0, 2)]),
            FREE2,
        )
        assert relative_invariant(p, (1, 1)) == (1, {(1, 1): 1})

    def test_rejects_unstable_pair(self):
        # (0, 1) escapes the weight polytope of w: no monomial reaches it.
        p = Pair(WeightedVector([(1, 0), (0, 1)]), WeightedVector([(1, 0)]), FREE2)
        with pytest.raises(ValueError, match="outside the weight polytope"):
            relative_invariant(p, (0, 1))

    def test_certifies_chi_inside_w_of_an_unstable_pair(self):
        # (1, 1) escapes, so the pair is unstable, but chi = (1, 0) is the
        # midpoint of the w-support and has its own certificate.
        p = Pair(
            WeightedVector([(1, 0), (1, 1)]), WeightedVector([(2, 0), (0, 0)]), FREE2
        )
        assert not t_semistable(p).semistable
        d, exponents = relative_invariant(p, (1, 0))
        assert (d, exponents) == (2, {(2, 0): 1, (0, 0): 1})
        assert check_relative_invariant(p, (1, 0), d, exponents)

    def test_one_lp_for_chi_outside_the_w_support(self, monkeypatch):
        calls = _count_lps(monkeypatch)
        inside = Pair(WeightedVector([(1, 1)]), WeightedVector([(2, 0), (0, 2)]), FREE2)
        escaping = Pair(WeightedVector([(1, 1)]), WeightedVector([(2, 0), (0, 0)]), FREE2)
        relative_invariant(inside, (1, 1))
        assert len(calls) == 1
        with pytest.raises(ValueError):
            relative_invariant(escaping, (1, 1))
        assert len(calls) == 2

    def test_rejects_chi_outside_support(self):
        p = Pair(WeightedVector([(1, 0)]), WeightedVector([(1, 0), (0, 1)]), FREE2)
        with pytest.raises(ValueError):
            relative_invariant(p, (0, 1))

    def test_verdict_weights_save_the_lp(self, monkeypatch):
        calls = _count_lps(monkeypatch)
        rng = random.Random(8)
        compared = 0
        while compared < 40:
            p = random_pair(rng)
            calls.clear()
            verdict = t_semistable(p)
            decided = len(calls)
            if not verdict.semistable:
                continue
            for chi in p.v.support:
                calls.clear()
                with_verdict = relative_invariant(p, chi, verdict)
                assert calls == []
                assert relative_invariant(p, chi) == with_verdict
                assert len(calls) == (chi not in p.w.support)
            # the whole relinv path: one LP per v-point outside w, none after
            assert decided == len(verdict.weights)
            compared += 1

    def test_degree_is_the_lcm_of_the_weight_denominators(self):
        rng = random.Random(21)
        checked = 0
        while checked < 60:
            p = random_pair(rng)
            verdict = t_semistable(p)
            if not verdict.semistable:
                continue
            for chi in p.v.support:
                if chi in p.w.support:
                    continue
                weights = verdict.weights[chi]
                d, exponents = relative_invariant(p, chi, verdict)
                assert d == math.lcm(*(l.denominator for l in weights))
                assert exponents == {
                    b: int(l * d) for b, l in zip(p.w.support.points, weights) if l
                }
                checked += 1

    def test_a_negative_exponent_is_rejected_at_degree_one(self):
        """3 + 0 - 1 = 2 = chi with exponents summing to d = 1: only the
        sign of the exponent of 1 is wrong."""
        p = Pair(WeightedVector([(2,)]), WeightedVector([(0,), (1,), (3,)]),
                 StabilityProblem.free(1))
        assert not check_relative_invariant(p, (2,), 1, {(3,): 1, (0,): 1, (1,): -1})
        assert check_relative_invariant(p, (2,), 3, {(3,): 2, (0,): 1})

    @pytest.mark.parametrize("chi, d, exponents", [
        ((0,), 1, {(-1,): 0.5, (1,): 0.5}),
        ((0,), 2.0, {(-1,): 1, (1,): 1}),
        ((0,), Fraction(2), {(-1,): 1, (1,): 1}),
        ((0,), 2, {(-1,): 1.0, (1,): 1}),
        ((1,), 1, {(1,): True}),
        ((1,), True, {(1,): 1}),
    ], ids=["float-exponents", "float-degree", "fraction-degree", "one-float-exponent",
            "bool-exponent", "bool-degree"])
    def test_inexact_certificates_are_rejected(self, chi, d, exponents):
        p = Pair(WeightedVector([(0,), (1,)]), WeightedVector([(-1,), (1,)]),
                 StabilityProblem.free(1))
        assert check_relative_invariant(p, (0,), 2, {(-1,): 1, (1,): 1})
        assert check_relative_invariant(p, (1,), 1, {(1,): 1})
        assert not check_relative_invariant(p, chi, d, exponents)

    def test_character_of_the_wrong_length_is_rejected(self):
        exponents = {(1, 0): 1}
        free = Pair(WeightedVector([(1, 0)]), WeightedVector([(1, 0), (0, 1)]), FREE2)
        assert check_relative_invariant(free, (1, 0), 1, exponents)
        assert not check_relative_invariant(free, (1,), 1, exponents)
        assert not check_relative_invariant(free, (1, 0, 5), 1, exponents)
        sl2 = Pair(free.v, free.w, StabilityProblem.special_linear(1))
        assert check_relative_invariant(sl2, (1, 0), 1, exponents)
        assert not check_relative_invariant(sl2, (7,), 1, exponents)

    def test_weights_of_another_pair_are_ignored(self):
        # Same v and w points, but the other pair is read modulo the
        # diagonal: its weights for (0, 0) do not combine to (0, 0) here.
        v, w = WeightedVector([(0, 0)]), WeightedVector([(1, 0), (0, 1), (1, 1)])
        other = t_semistable(Pair(v, w, SL_LIKE))
        assert other.semistable and (0, 0) in other.weights
        p = Pair(v, w, FREE2)
        with pytest.raises(ValueError, match="outside the weight polytope"):
            relative_invariant(p, (0, 0), other)
        inside = Pair(WeightedVector([(1, 1)]), WeightedVector([(2, 0), (0, 2)]), FREE2)
        tampered = Verdict(True, weights={(1, 1): (Fraction(1), Fraction(0))})
        d, exponents = relative_invariant(inside, (1, 1), tampered)
        assert (d, exponents) == (2, {(2, 0): 1, (0, 2): 1})


class TestRandomizedProperties:
    def test_criterion_equivalence_three_ways(self):
        rng = random.Random(20240811)
        unstable_seen = 0
        for _ in range(150):
            p = random_pair(rng)
            verdict = t_semistable(p)
            by_facets = facet_weight_semistable(p)
            by_oracle = brute_hull_contains(
                p.w.support.points, p.v.support.points, p.problem.constraints
            )
            assert verdict.semistable == by_facets == by_oracle
            if not verdict.semistable:
                unstable_seen += 1
                u = verdict.witness
                assert weight(u, p.w, p.problem.constraints) > weight(
                    u, p.v, p.problem.constraints
                )
        assert unstable_seen > 20

    def test_magnitude_rescaling_is_invisible(self):
        rng = random.Random(7)
        for _ in range(25):
            plain = random_pair(rng)
            weighted = Pair(
                WeightedVector(
                    plain.v.support,
                    {p: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for p in plain.v.support},
                ),
                WeightedVector(
                    plain.w.support,
                    {p: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for p in plain.w.support},
                ),
                plain.problem,
            )
            assert t_semistable(plain).semistable == t_semistable(weighted).semistable

    def test_trivial_v_reduction(self):
        """With v supported at the origin, semistability is 0 lying in the
        w-polytope and stability is 0 lying in its relative interior."""
        rng = random.Random(99)
        stable_seen = semistable_seen = 0
        for _ in range(40):
            rank = rng.randint(1, 3)
            problem = StabilityProblem.free(rank)
            w = WeightedVector(
                PointSet(
                    {
                        tuple(rng.randint(-3, 3) for _ in range(rank))
                        for _ in range(rng.randint(1, 6))
                    }
                )
            )
            v = WeightedVector([(0,) * rank])
            p = Pair(v, w, problem)
            origin = (0,) * rank
            assert t_semistable(p).semistable == contains_point(w.support, origin)
            # strict stability of (0-supported v, w) is 0 sitting in the strict
            # interior of the w-polytope: relative interior plus full dimension
            from stablepairs.linalg import matrix_rank

            w0 = w.support.points[0]
            full_dim = (
                matrix_rank([tuple(a - b for a, b in zip(q, w0)) for q in w.support.points])
                == rank
            )
            expect_stable = full_dim and interior_contains(w.support, origin)
            # facet normals of coordinate-bounded polytopes keep the needed
            # exponent under ~80; unstable cases cannot convert at any m
            m_cap = 80 if expect_stable else 6
            verdict = stable(p, m_cap)
            assert verdict.is_stable == expect_stable
            if verdict.is_stable:
                stable_seen += 1
            if t_semistable(p).semistable:
                semistable_seen += 1
        assert stable_seen >= 3
        assert semistable_seen >= 10

    def test_stability_monotone_in_exponent(self):
        rng = random.Random(4242)
        hits = 0
        for _ in range(40):
            p = random_pair(rng, rank=rng.randint(1, 3), max_points=6, lo=-3, hi=3)
            verdict = stable(p, 4)
            if verdict.is_stable:
                hits += 1
                q = degree_of(p.v, p.problem)
                nxt = perturb(p, verdict.exponent + 1, q)
                assert t_semistable(nxt).semistable
        assert hits >= 5

    def test_relative_invariants_on_random_semistable_pairs(self):
        rng = random.Random(31337)
        checked = 0
        for _ in range(60):
            p = random_pair(rng, rank=rng.randint(1, 3), max_points=5, lo=-3, hi=3)
            if not t_semistable(p).semistable:
                continue
            for chi in p.v.support:
                d, exponents = relative_invariant(p, chi)
                assert d >= 1
                assert sum(exponents.values()) == d
                assert check_relative_invariant(p, chi, d, exponents)
                checked += 1
        assert checked >= 15
