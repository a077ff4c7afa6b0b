import random
from fractions import Fraction

import pytest

import stablepairs.linprog
import stablepairs.pairs
import stablepairs.polytope
from stablepairs import (
    Pair,
    PointSet,
    StabilityProblem,
    StableVerdict,
    WeightedVector,
    certificate_normals,
    check_relative_invariant,
    contains_point,
    degree_of,
    futaki_gen,
    interior_contains,
    minkowski_sum,
    perturb,
    relative_invariant,
    scale,
    stable,
    t_semistable,
    weight,
)

from helpers import (
    brute_hull_contains,
    facet_weight_semistable,
    random_pair,
    scan_degree,
    scan_stable,
)

FREE2 = StabilityProblem.free(2)
SL_LIKE = StabilityProblem(2, [(1, 1)], [(1, 0), (0, 1)])


class TestProblemValidation:
    def test_special_linear_defaults(self):
        prob = StabilityProblem.special_linear(2)
        assert prob.rank == 3
        assert prob.constraints == ((1, 1, 1),)
        assert len(prob.q_polytope) == 3

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
        assert wv.magnitude_of((0, 1)) == Fraction(1, 2)

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


class TestDegree:
    def test_examples(self):
        assert degree_of(WeightedVector([(0, 0)]), FREE2) == 1
        assert degree_of(WeightedVector([(2, 0)]), FREE2) == 2
        assert degree_of(WeightedVector([(1, 1)]), FREE2) == 2

    def test_quotient_degree(self):
        prob = StabilityProblem.special_linear(1)
        # (3, 1) is (1, -1)-ish modulo the diagonal: fits in 2Q but not Q
        assert degree_of(WeightedVector([(3, 1)]), prob) == 2

    def test_reference_normals_computed_once_per_problem(self, monkeypatch):
        prob = StabilityProblem.free(3)
        real = stablepairs.pairs.certificate_normals
        seen = []
        monkeypatch.setattr(
            stablepairs.pairs, "certificate_normals", lambda A, *a: seen.append(A) or real(A, *a)
        )
        assert degree_of(WeightedVector([(2, 1, 0)]), prob) == 3
        assert degree_of(WeightedVector([(0, -3, 1)]), prob) == 4
        assert sum(A is prob.q_polytope for A in seen) == 1


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
            perturb(p, 0)


class TestStable:
    def test_stable_at_one(self):
        w = WeightedVector([(1, 0), (-1, 0), (0, 1), (0, -1)])
        verdict = stable(Pair(WeightedVector([(0, 0)]), w, FREE2), 5)
        assert verdict == StableVerdict.stable(1)

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

    def test_dropped_normal_is_caught(self, monkeypatch):
        real = stablepairs.pairs.certificate_normals
        monkeypatch.setattr(
            stablepairs.pairs, "certificate_normals", lambda A, ctx: real(A, ctx)[1:]
        )
        with pytest.raises(RuntimeError):
            stable(EXPONENT_THREE, 10)
        with pytest.raises(RuntimeError):
            # a fresh problem: FREE2 may already hold its reference normals
            degree_of(WeightedVector([(2, 1)]), StabilityProblem.free(2))


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
        p = Pair(WeightedVector([(1, 0), (0, 1)]), WeightedVector([(1, 0)]), FREE2)
        with pytest.raises(ValueError):
            relative_invariant(p, (1, 0))

    def test_rejects_chi_outside_support(self):
        p = Pair(WeightedVector([(1, 0)]), WeightedVector([(1, 0), (0, 1)]), FREE2)
        with pytest.raises(ValueError):
            relative_invariant(p, (0, 1))


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
