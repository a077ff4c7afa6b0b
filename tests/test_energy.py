import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import stablepairs.energy
import stablepairs.linprog
import stablepairs.pairs
import stablepairs.polytope
from stablepairs import (
    Pair,
    PointSet,
    StabilityProblem,
    WeightedVector,
    asymptotic_slope,
    certificate_normals,
    degree_of,
    energy_along,
    energy_at,
    futaki_gen,
    infimum_estimate,
    perturb,
    properness_slope_check,
    t_semistable,
)

from stablepairs.linalg import nullspace

from helpers import (
    _log_sum_exp,
    _o_rref,
    kempf_ness_distance,
    random_magnitudes,
    random_pair,
    random_problem,
    random_support,
    reference_infimum_estimate,
    reference_line,
    ternary_infimum_estimate,
)

FREE1 = StabilityProblem.free(1)
FREE2 = StabilityProblem.free(2)


def rank1_pair() -> Pair:
    # v supported at 0 with unit coefficient, w at +-1 with unit coefficients
    return Pair(
        WeightedVector([(0,)]),
        WeightedVector({(1,): 1, (-1,): 1}),
        FREE1,
    )


class TestEnergyAt:
    def test_unit_norms_vanish_at_identity(self):
        p = Pair(
            WeightedVector({(0,): 1}),
            WeightedVector({(1,): Fraction(1, 2), (-1,): Fraction(1, 2)}),
            FREE1,
        )
        assert energy_at(p, [0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_closed_form(self):
        p = rank1_pair()
        assert energy_at(p, [0.0]) == pytest.approx(math.log(2), abs=1e-12)

    def test_dominant_term(self):
        p = rank1_pair()
        assert energy_at(p, (-10.0,)) == pytest.approx(20.0, abs=1e-6)

    def test_constraint_violation_rejected(self):
        prob = StabilityProblem.special_linear(1)
        p = Pair(WeightedVector([(1, 0)]), WeightedVector([(1, 0), (0, 1)]), prob)
        with pytest.raises(ValueError):
            energy_at(p, [1.0, 1.0])
        energy_at(p, [1.0, -1.0])  # admissible direction is fine

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("problem", [FREE2, StabilityProblem.special_linear(1)],
                             ids=["free", "constrained"])
    def test_non_finite_log_moduli_rejected(self, bad, problem):
        p = Pair(WeightedVector([(1, 0)]), WeightedVector([(1, 0), (0, 1)]), problem)
        for s in ([bad, 0.0], [bad, -bad], (0.0, bad)):
            with pytest.raises(ValueError, match="non-finite"):
                energy_at(p, s)

    @pytest.mark.parametrize("exponent", [-400, 400])
    def test_magnitudes_beyond_the_float_range(self, exponent):
        """At the identity the energy is log sum |w|^2 - log sum |v|^2; a
        magnitude 10^(+-400), which no float holds, enters through its log."""
        big = Fraction(10) ** exponent
        p = Pair(WeightedVector([(0, 0)], [big]),
                 WeightedVector([(0, 0), (1, 0)], [1, Fraction(1, 3)]), FREE2)
        expected = math.log(Fraction(4, 3)) - exponent * math.log(10)
        assert math.isclose(energy_at(p, [0.0, 0.0]), expected, rel_tol=1e-12)
        assert math.isclose(energy_at(p, [-2.0, 0.0]),
                            math.log(1 + math.exp(-4) / 3) - exponent * math.log(10),
                            rel_tol=1e-12)

    def test_subnormal_magnitude_keeps_its_precision(self):
        # float(3/10^320) is a subnormal holding only about 36 of 53 bits.
        m = Fraction(3, 10**320)
        expected = math.log(3) - 320 * math.log(10)
        assert abs(math.log(float(m)) - expected) > 1e-6
        (got,) = WeightedVector([(0,)], [m]).log_magnitudes
        assert math.isclose(got, expected, rel_tol=1e-12)

    def test_normal_magnitudes_keep_the_float_log(self):
        mags = [Fraction(1, 7), Fraction(10) ** 300, Fraction(1, 10**300), Fraction(5, 3)]
        v = WeightedVector([(i,) for i in range(len(mags))], mags)
        assert v.log_magnitudes == tuple(math.log(float(m)) for m in mags)

    def test_matches_uncached_formula_bit_for_bit(self):
        def log_norm_sq(vec, s):
            return _log_sum_exp([
                math.log(float(mag)) + 2.0 * sum(si * ai for si, ai in zip(s, a))
                for a, mag in zip(vec.support.points, vec.magnitudes)
            ])

        rng = random.Random(17)
        for _ in range(40):
            p = random_pair(rng, rank=2, weighted=True)
            s = [rng.uniform(-3, 3) for _ in range(2)]
            if p.problem.constraints:
                s = [s[0], -s[0]]
            assert energy_at(p, s) == log_norm_sq(p.w, s) - log_norm_sq(p.v, s)


class TestEnergyAlong:
    def test_closed_form_curve(self):
        p = rank1_pair()
        for t in (0.5, 0.1, 0.01):
            expected = math.log(t**2 + t**-2)
            assert energy_along(p, (1,), t) == pytest.approx(expected, rel=1e-12)

    def test_zero_subgroup_is_constant(self):
        p = rank1_pair()
        vals = {round(energy_along(p, (0,), t), 12) for t in (0.9, 0.5, 0.1)}
        assert len(vals) == 1

    def test_t_one_is_identity_element(self):
        p = rank1_pair()
        assert energy_along(p, (1,), 1.0) == pytest.approx(energy_at(p, [0.0]))

    def test_t_outside_range_rejected(self):
        with pytest.raises(ValueError):
            energy_along(rank1_pair(), (1,), 1.5)


class TestAsymptoticSlope:
    def test_slope_matches_futaki_number(self):
        p = rank1_pair()
        assert asymptotic_slope(p, (1,)) == pytest.approx(futaki_gen((1,), p), abs=1e-6)

    def test_zero_subgroup(self):
        assert asymptotic_slope(rank1_pair(), (0,)) == pytest.approx(0.0, abs=1e-9)

    def test_witness_has_positive_slope(self):
        p = Pair(WeightedVector([(1, 0), (0, 1)]), WeightedVector([(1, 0)]), FREE2)
        u = t_semistable(p).witness
        assert asymptotic_slope(p, u) > 0.5

    @pytest.mark.parametrize("magnitude", [10**20, 10**400], ids=["1e20", "1e400"])
    def test_far_apart_magnitudes(self, magnitude):
        """A w-term of larger pairing but far larger magnitude still gives
        way to the term of least pairing: the slope is the Futaki number, 0."""
        w = WeightedVector({(0,): 1, (1,): magnitude})
        p = Pair(WeightedVector({(0,): 1}), w, StabilityProblem.free(1, [(-1,), (1,)]))
        assert futaki_gen((1,), p) == 0
        assert abs(asymptotic_slope(p, (1,))) < 1e-15

    def test_random_instances(self):
        rng = random.Random(888)
        for _ in range(30):
            rank = rng.randint(1, 3)
            p = random_pair(rng, rank=rank, max_points=5, lo=-2, hi=2, weighted=True)
            if p.problem.constraints:
                u = tuple(
                    rng.randint(-2, 2) * a
                    for a in ([1] * (rank - 1) + [-(rank - 1)] if rank > 1 else [0])
                )
                if sum(u) != 0:
                    continue
            else:
                u = tuple(rng.randint(-2, 2) for _ in range(rank))
            slope = asymptotic_slope(p, u)
            assert slope == pytest.approx(futaki_gen(u, p), abs=1e-12)

    def test_energy_pool_covectors(self, monkeypatch, tmp_path):
        """On the weighted chord pairs and covectors of the benchmark's
        `energy` pools (seeds 1-3), E'/2 at the log t worked out from each
        line is the Futaki number up to rounding."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        import workloads

        pool = workloads.Energy()
        count = 0
        for seed in (1, 2, 3):
            for batch in pool.setup(random.Random(seed), str(tmp_path)):
                for p, _, us in batch:
                    for u in us:
                        assert abs(asymptotic_slope(p, u) - futaki_gen(u, p)) <= 1e-15, (p, u)
                        count += 1
        assert count == 1296


class TestDirectionChecked:
    @pytest.mark.parametrize("u", [(1, 1), (1,), (1, -1, 0)], ids=["inadmissible", "short", "long"])
    def test_energy_along_and_slope_refuse(self, u):
        prob = StabilityProblem.special_linear(1)
        p = Pair(WeightedVector([(1, 0)]), WeightedVector([(1, 0), (0, 1)]), prob)
        with pytest.raises(ValueError):
            energy_along(p, u, 0.5)
        with pytest.raises(ValueError):
            asymptotic_slope(p, u)
        assert energy_along(p, (1, -1), 0.5) == pytest.approx(math.log(1 + 0.5**-4))


class TestKempfNessDistance:
    def test_symmetric_case(self):
        p = Pair(
            WeightedVector({(0,): 1}),
            WeightedVector({(0,): 1}),
            FREE1,
        )
        # equal norms: distance pi/4, log tan^2 = 0
        assert kempf_ness_distance(p, [0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_rank1_closed_form(self):
        p = rank1_pair()
        assert kempf_ness_distance(p, [0.0]) == pytest.approx(math.log(2), rel=1e-12)

    def test_identity_with_energy_on_random_elements(self):
        rng = random.Random(1234)
        count = 0
        while count < 60:
            p = random_pair(rng, rank=rng.randint(1, 3), max_points=4, lo=-2, hi=2, weighted=True)
            rank = p.problem.rank
            s = [rng.uniform(-3, 3) for _ in range(rank)]
            if p.problem.constraints:
                mean = sum(s) / rank
                s = [x - mean for x in s]
            e = energy_at(p, s)
            if abs(e) > 16:
                continue  # arccos conditioning degrades past e^16 ratios
            count += 1
            assert math.isclose(kempf_ness_distance(p, s), e, rel_tol=1e-10, abs_tol=1e-10)


class TestInfimumEstimate:
    def test_unstable_flags_minus_infinity(self):
        p = Pair(WeightedVector([(1, 0), (0, 1)]), WeightedVector([(1, 0)]), FREE2)
        assert infimum_estimate(p) == -math.inf

    def test_semistable_rank1_bound(self):
        p = rank1_pair()
        est = infimum_estimate(p)
        assert math.isfinite(est)
        assert est <= math.log(2) + 1e-9

    def test_identical_vectors_reach_zero(self):
        wv = WeightedVector({(1, 0): 2, (0, 1): Fraction(1, 3)})
        p = Pair(wv, wv, FREE2)
        assert infimum_estimate(p) == pytest.approx(0.0, abs=1e-9)

    def test_dichotomy_matches_exact_verdict(self):
        rng = random.Random(55)
        unstable = 0
        for _ in range(200):
            p = random_pair(rng, rank=rng.randint(1, 3), max_points=4, lo=-3, hi=3, weighted=True)
            est = infimum_estimate(p)
            flagged = est == -math.inf
            assert flagged == (not t_semistable(p).semistable)
            if flagged:
                unstable += 1
        assert unstable > 40

    def test_dichotomy_matches_exact_verdict_under_other_constraints(self):
        # Non-unit and paired constraint directions, and a rank-1 problem
        # whose constraint leaves a zero-dimensional quotient.
        problems = [
            StabilityProblem(1, [(1,)]),
            StabilityProblem(2, [(2, 3)]),
            StabilityProblem(3, [(2, 3, 5)]),
            StabilityProblem(3, [(2, 3, 5), (1, -1, 0)]),
            StabilityProblem(4, [(2, 3, 4, 5)]),
        ]
        rng = random.Random(56)
        unstable = 0
        for i in range(150):
            problem = problems[i % len(problems)]
            v, w = (random_support(rng, problem.rank, 4, -3, 3) for _ in range(2))
            p = Pair(WeightedVector(v, random_magnitudes(rng, v)),
                     WeightedVector(w, random_magnitudes(rng, w)), problem)
            flagged = infimum_estimate(p) == -math.inf
            assert flagged == (not t_semistable(p).semistable)
            unstable += flagged
        assert 30 < unstable < 120

    def test_no_lp_on_semistable_pairs(self, monkeypatch):
        pairs = semistable_pairs(33, 24)  # each problem checks its reference with an LP
        calls = []
        real = stablepairs.linprog.solve_lp

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(stablepairs.linprog, "solve_lp", counting)
        monkeypatch.setattr(stablepairs.polytope, "solve_lp", counting)
        for p in pairs:
            assert math.isfinite(infimum_estimate(p))
        assert calls == []


class TestPropernessSlope:
    def test_zero_subgroup(self):
        assert properness_slope_check(rank1_pair(), 3, 1, (0,))

    def test_stable_example_passes_all_normals(self):
        w = WeightedVector([(1, 0), (-1, 0), (0, 1), (0, -1)])
        p = Pair(WeightedVector([(0, 0)]), w, FREE2)
        q = degree_of(p.v, p.problem)
        for u in certificate_normals(p.w.support, p.problem.ctx):
            assert properness_slope_check(p, 1, q, u)

    def test_one_sided_hull_fails_forever(self):
        p = Pair(WeightedVector([(0, 0)]), WeightedVector([(0, 0), (1, 0)]), FREE2)
        q = degree_of(p.v, p.problem)
        # the -x direction never absorbs the reference polytope
        for m in (1, 2, 5, 17):
            assert not properness_slope_check(p, m, q, (1, 0))

    def test_slope_checks_match_perturbed_semistability(self):
        rng = random.Random(909)
        for _ in range(40):
            p = random_pair(rng, rank=rng.randint(1, 3), max_points=4, lo=-2, hi=2)
            q = degree_of(p.v, p.problem)
            m = rng.randint(1, 3)
            pert = perturb(p, m, q)
            normals = set(certificate_normals(pert.w.support, p.problem.ctx))
            normals |= set(certificate_normals(pert.v.support, p.problem.ctx))
            by_slopes = all(properness_slope_check(p, m, q, u) for u in normals)
            assert by_slopes == t_semistable(pert).semistable


_RAY_TAUS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


def semistable_pairs(seed: int, count: int) -> list[Pair]:
    """Seeded weighted pairs of ranks 1-4, free and trace-zero, semistable
    because the v-support is a subset of the w-support."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        rank = 1 + i % 4
        w = random_support(rng, rank, max_points=7, lo=-3, hi=3)
        v = PointSet(rng.sample(w.points, rng.randint(1, len(w.points))))
        out.append(Pair(WeightedVector(v, random_magnitudes(rng, v)),
                        WeightedVector(w, random_magnitudes(rng, w)),
                        random_problem(rng, rank)))
    return out


class TestLineKernel:
    """The lines infimum_estimate probes, against energy_at at the same element."""

    def test_agrees_with_energy_at(self):
        rng = random.Random(2024)
        kinds = {(rank, constrained): 0 for rank in range(1, 5) for constrained in (False, True)}
        for _ in range(160):
            p = random_pair(rng, rank=rng.randint(1, 4), max_points=6, lo=-3, hi=3, weighted=True)
            rank, cons = p.problem.rank, p.problem.constraints
            basis = nullspace(cons, rank)
            kinds[rank, bool(cons)] += 1
            shift = [(rng.uniform(-4, 4), e) for e in basis]
            directions = basis + list(certificate_normals(p.w.support, p.problem.ctx))
            d = rng.choice(directions)
            energy = stablepairs.energy._Line(
                p,
                [(c, stablepairs.energy._SubgroupLine(p, e).sides()) for c, e in shift],
                stablepairs.energy._SubgroupLine(p, d).sides(),
            )
            for t in (-8.0, -1.3, 0.0, 0.7, 5.0):
                s = [sum(c * float(e[i]) for c, e in shift) + t * float(d[i])
                     for i in range(rank)]
                e = energy_at(p, s)
                assert abs(energy(t) - e) <= 1e-12 * max(1.0, abs(e))
        del kinds[1, True]  # rank 1 has no trace-zero problem with a nonzero direction
        assert min(kinds.values()) >= 8

    def test_bit_identical_to_the_reference_probe(self):
        """A probe makes the float operations of `reference_line` in the
        same order, so the two agree exactly, not to a tolerance."""
        rng = random.Random(4242)
        shifted = 0
        for _ in range(120):
            p = random_pair(rng, rank=rng.randint(1, 4), max_points=8, lo=-4, hi=4, weighted=True)
            rank, cons = p.problem.rank, p.problem.constraints
            basis = nullspace(cons, rank)
            if not basis:
                continue
            d = rng.choice(basis + list(certificate_normals(p.w.support, p.problem.ctx)))
            along = stablepairs.energy._SubgroupLine(p, d).sides()
            for shift in ([], [(rng.uniform(-5, 5), e) for e in basis]):
                sides = [(c, stablepairs.energy._SubgroupLine(p, e).sides()) for c, e in shift]
                shifted += bool(sides)
                energy = stablepairs.energy._Line(p, sides, along)
                reference = reference_line(p, sides, along)
                for t in [0.0, 8.0, -8.0] + [rng.uniform(-10, 10) for _ in range(12)]:
                    assert energy(t) == reference(t)
        assert shifted >= 80

    def test_inadmissible_direction_rejected_exactly(self):
        p = Pair(WeightedVector([(1, 0)]), WeightedVector([(1, 0), (0, 1)]),
                 StabilityProblem.special_linear(1))
        with pytest.raises(ValueError):
            stablepairs.energy._SubgroupLine(p, (1, 1)).sides()
        with pytest.raises(ValueError):
            stablepairs.energy._SubgroupLine(
                p, (Fraction(1, 3), Fraction(-1, 3) + Fraction(1, 10**30))).sides()
        d = (Fraction(1, 3), Fraction(-1, 3))
        assert stablepairs.energy._SubgroupLine(p, d).sides() == tuple(
            [float(2 * (d[0] * a[0] + d[1] * a[1])) for a in vec.support.points]
            for vec in (p.w, p.v)
        )


class TestLogSumExp:
    """`energy._log_sum_exp`, the one log-sum-exp of the energy, against the
    oracle of `tests/helpers.py` under `float.hex`."""

    CASES = {
        "one term": [-3.25],
        "all equal": [0.7] * 5,
        "underflow": [0.0, -800.0, -1600.0, 3.5, 3.5 - 800.0],
        "negative zero": [-0.0, -1.5, 2.0],
        "only negative zero": [-0.0],
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_edge_cases_match_the_oracle(self, name):
        terms = self.CASES[name]
        assert stablepairs.energy._log_sum_exp(terms).hex() == _log_sum_exp(terms).hex()

    def test_seeded_lists_match_the_oracle(self):
        rng = random.Random(1717)
        for _ in range(200):
            terms = [rng.uniform(-50, 50) for _ in range(rng.randint(1, 16))]
            assert stablepairs.energy._log_sum_exp(terms).hex() == _log_sum_exp(terms).hex()

    @pytest.mark.skipif(sys.version_info >= (3, 12), reason="sum compensates since 3.12")
    def test_loop_makes_the_additions_of_sum(self):
        rng = random.Random(1718)
        for _ in range(200):
            terms = [rng.uniform(-50, 50) for _ in range(rng.randint(1, 16))]
            m = max(terms)
            plain = m + math.log(sum(map(math.exp, [t - m for t in terms])))
            assert stablepairs.energy._log_sum_exp(terms).hex() == plain.hex()

    def test_two_calls_per_line_probe(self, monkeypatch):
        calls = []
        real = stablepairs.energy._log_sum_exp

        def counting(terms):
            calls.append(len(terms))
            return real(terms)

        monkeypatch.setattr(stablepairs.energy, "_log_sum_exp", counting)
        rng = random.Random(1719)
        for p in semistable_pairs(1720, 12):
            basis = nullspace(p.problem.constraints, p.problem.rank)
            if not basis:
                continue
            along = stablepairs.energy._SubgroupLine(p, basis[0]).sides()
            energy = stablepairs.energy._Line(p, [], along)
            for _ in range(5):
                calls.clear()
                energy(rng.uniform(-8, 8))
                assert calls == [len(p.w.support), len(p.v.support)]


class TestInfimumEstimateProbes:
    def test_one_exact_pass_per_normal_and_basis_vector(self, monkeypatch):
        """The normals take their passes in the scan `stable` shares, up to a
        destabilizer; each basis vector takes one in `_SubgroupLine`."""
        passes = []
        real = stablepairs.pairs._futaki_pairings
        for module in (stablepairs.pairs, stablepairs.energy):
            monkeypatch.setattr(
                module, "_futaki_pairings", lambda u, p: passes.append(tuple(u)) or real(u, p)
            )
        with_basis = 0
        for p in semistable_pairs(33, 24):
            normals = certificate_normals(p.w.support, p.problem.ctx)
            basis = p.problem.ctx.covectors(p.problem.rank)
            passes.clear()
            assert math.isfinite(infimum_estimate(p))
            assert passes[:len(normals)] == list(normals)
            assert len(passes) == len(normals) + len(basis)
            with_basis += bool(basis) and bool(normals)
        assert with_basis >= 12
        unstable = Pair(WeightedVector([(0, 0), (-1, 2)]),
                        WeightedVector([(2, 0), (0, 2), (-2, -2)]), FREE2)
        normals = certificate_normals(unstable.w.support, unstable.problem.ctx)
        passes.clear()
        assert infimum_estimate(unstable) == -math.inf
        assert passes == list(normals) and futaki_gen(normals[-1], unstable) > 0

    def test_calls_energy_at_at_most_once(self, monkeypatch):
        calls = []
        real = stablepairs.energy.energy_at
        monkeypatch.setattr(
            stablepairs.energy, "energy_at", lambda p, s: calls.append(s) or real(p, s)
        )
        for p in semistable_pairs(31, 24):
            calls.clear()
            infimum_estimate(p)
            assert len(calls) <= 1

    def test_below_identity_and_every_ray_probe(self):
        pairs = semistable_pairs(32, 48)
        assert sum(bool(p.problem.constraints) for p in pairs) >= 12
        for p in pairs:
            rank = p.problem.rank
            est = infimum_estimate(p)
            assert est <= energy_at(p, [0.0] * rank)
            if not nullspace(p.problem.constraints, rank):
                continue  # no admissible direction: no rays are probed
            for u in certificate_normals(p.w.support, p.problem.ctx):
                for tau in _RAY_TAUS:
                    for sign in (1.0, -1.0):
                        ray = energy_at(p, [sign * tau * ui for ui in u])
                        assert est <= ray + 1e-9


# Two pairs of the `energy` benchmark pools (seeds 2 and 3) and the estimate
# the search reaches on them.  On the first only a ray probe with the - sign
# gets there: the + probes alone stop 0.149 higher.  On the second only the
# value at the end of a line search does: without it the estimate is 0.931
# higher.
PINNED_SEARCH = {
    "minus_ray": (
        3, [],
        {(-1, 1, 1): Fraction(5, 4)},
        {(-3, 0, 3): Fraction(7, 4), (-3, 3, 2): Fraction(15, 4), (-1, 1, 3): Fraction(7, 4),
         (1, 2, -1): Fraction(5, 2), (1, 2, 3): Fraction(4), (2, -2, 2): Fraction(3, 4),
         (2, 2, 2): Fraction(5, 4), (3, 3, 2): Fraction(4)},
        1.386294361119866,
    ),
    "line_search": (
        3, [(1, 1, 1)],
        {(2, 2, -1): Fraction(7, 2)},
        {(-3, 2, -3): Fraction(3, 2), (-2, -2, -1): Fraction(9, 4), (-1, -2, -1): Fraction(2),
         (1, -1, 1): Fraction(1, 4), (1, 1, 0): Fraction(7, 2), (2, 1, -1): Fraction(1, 4),
         (3, -3, 3): Fraction(3, 4), (3, 3, -2): Fraction(1, 4)},
        -0.2669389637710782,
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_SEARCH))
def test_infimum_estimate_search_is_pinned(name):
    rank, constraints, v, w, expected = PINNED_SEARCH[name]
    problem = StabilityProblem(rank, constraints)
    p = Pair(WeightedVector(v), WeightedVector(w), problem)
    assert abs(infimum_estimate(p) - expected) <= 1e-9


def _pinned_pair(name: str) -> Pair:
    rank, constraints, v, w, _ = PINNED_SEARCH[name]
    return Pair(WeightedVector(v), WeightedVector(w), StabilityProblem(rank, constraints))


# Two pairs of the `energy` benchmark pools (seeds 2 and 1, items 64 and 34)
# whose lines are not all unimodal in the bracket, the estimate the 40-step
# ternary search reached on each, and ternary step counts too small to keep
# that basin: with them the Newton finish ends at least 0.1 higher (0.117
# and 0.101 on the first, 0.589 with none on the second).
PINNED_BASIN = {
    "seed_2_item_64": (
        3, [],
        {(-1, 1, -2): Fraction(15, 4), (0, 0, 2): Fraction(7, 2), (1, 2, 0): Fraction(2),
         (2, -2, -1): Fraction(1, 2)},
        {(-2, 3, -1): Fraction(1, 4), (-1, 1, 1): Fraction(7, 4), (0, -1, -3): Fraction(5, 4),
         (0, 0, -1): Fraction(2), (1, -2, -1): Fraction(5, 2), (1, -1, 3): Fraction(1),
         (2, 4, 1): Fraction(4), (3, -2, -1): Fraction(7, 2)},
        -1.146606496207112,
        (1, 2, 4),
    ),
    "seed_1_item_34": (
        4, [],
        {(0, -1, -1, -1): Fraction(5, 2), (2, 0, -2, 1): Fraction(3, 2)},
        {(-2, -2, -1, -2): Fraction(5, 2), (-2, 1, -2, 0): Fraction(7, 4),
         (-2, 3, 2, 1): Fraction(5, 2), (-1, 1, -1, -3): Fraction(5, 4),
         (0, -3, -1, -1): Fraction(1, 4), (0, -3, 1, -2): Fraction(11, 4),
         (1, -3, -1, 1): Fraction(1), (1, -3, 0, 2): Fraction(7, 2),
         (1, -1, -2, 1): Fraction(13, 4), (2, -1, 0, 2): Fraction(3, 2),
         (2, 0, 0, 0): Fraction(15, 4), (2, 1, -4, 0): Fraction(15, 4)},
        1.2282137201625147,
        (0,),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_BASIN))
def test_ternary_steps_keep_the_basin(monkeypatch, name):
    """The ternary steps before the Newton finish pick the basin the 40-step
    search picked; with too few, Newton ends in another basin."""
    rank, constraints, v, w, expected, too_few = PINNED_BASIN[name]
    p = Pair(WeightedVector(v), WeightedVector(w), StabilityProblem(rank, constraints))
    assert abs(infimum_estimate(p) - expected) <= 1e-6
    for steps in too_few:
        monkeypatch.setattr(stablepairs.energy, "_TERNARY_STEPS", steps)
        assert infimum_estimate(p) > expected + 0.1, steps


# The seven pairs of the `energy` benchmark pools (seeds 1-9) whose estimate
# moved by more than 1e-9 when ternary steps were left out of sweeps 2-4,
# with the estimate the search reaches now and the one ternary steps in
# every sweep reached.  On five of them a later ternary pick jumped to a
# lower basin (seed 4, item 35: 0.313 lower); on the other two the search
# now ends lower.  The test bounds that accepted loss: a change to the
# search may lower these estimates, but raising one fails.
PINNED_ONE_PICK = {
    "seed_1_item_53": (
        4, [(1, 1, 1, 1)],
        {(-1, 0, 0, 2): Fraction(3), (0, 2, -1, -1): Fraction(7, 4),
         (2, -2, -2, -1): Fraction(5, 2)},
        {(-1, -1, 0, 1): Fraction(9, 4), (-1, 0, 1, -2): Fraction(9, 4),
         (-1, 1, 0, 3): Fraction(4), (1, -2, -2, 0): Fraction(5, 4), (1, 4, -3, 0): Fraction(3),
         (2, -1, 0, -3): Fraction(5, 4), (2, 0, 0, -1): Fraction(13, 4),
         (3, -3, 3, -2): Fraction(1, 2), (3, -2, -2, -2): Fraction(3, 4),
         (3, -1, 0, 3): Fraction(9, 4)},
        0.9461003420471208, 0.8271612777966721,
    ),
    "seed_4_item_35": (
        3, [],
        {(-2, 1, -2): Fraction(1), (-1, 2, 1): Fraction(1, 2)},
        {(-4, 0, -1): Fraction(3, 4), (-3, -1, 0): Fraction(11, 4), (-2, 1, 1): Fraction(1, 2),
         (0, 2, -3): Fraction(9, 4), (0, 3, 1): Fraction(3, 2), (2, 3, -2): Fraction(11, 4),
         (2, 3, 2): Fraction(1, 4), (3, 2, -2): Fraction(15, 4)},
        1.4834599231682546, 1.1703336583263413,
    ),
    "seed_5_item_12": (
        4, [],
        {(-2, -1, -1, 2): Fraction(13, 4), (1, -2, -2, 0): Fraction(5, 4),
         (1, -1, 2, -1): Fraction(1, 4), (1, 1, 0, -2): Fraction(5, 2)},
        {(-4, -1, -3, 0): Fraction(15, 4), (-1, -1, -4, 2): Fraction(2),
         (-1, 1, -1, -3): Fraction(1), (0, -1, 1, 4): Fraction(5, 4), (0, 1, 0, 0): Fraction(5, 2),
         (2, -3, 4, -2): Fraction(4), (3, -3, 0, -2): Fraction(3, 4),
         (3, 1, 1, -1): Fraction(9, 4)},
        0.23861232405808064, 0.2385518951681469,
    ),
    "seed_5_item_17": (
        4, [(1, 1, 1, 1)],
        {(-1, 1, -2, -2): Fraction(3, 2), (2, -2, 1, -1): Fraction(3, 4),
         (2, -1, 0, -2): Fraction(15, 4), (2, 2, 1, -1): Fraction(1, 2)},
        {(-3, 0, -1, -3): Fraction(7, 4), (-1, 0, 0, -3): Fraction(13, 4),
         (0, -4, 2, -1): Fraction(1), (0, 1, -1, -4): Fraction(5, 2), (1, -1, 2, 1): Fraction(3),
         (1, 0, 0, -1): Fraction(7, 2), (1, 2, -3, -1): Fraction(5, 4),
         (1, 2, 3, -3): Fraction(15, 4), (2, -3, -1, 1): Fraction(3),
         (3, 2, -1, 1): Fraction(3, 4), (4, -3, 1, 0): Fraction(4), (4, 0, 0, -1): Fraction(1, 4)},
        0.9312920785715351, 0.7583587989085867,
    ),
    "seed_5_item_102": (
        4, [(1, 1, 1, 1)],
        {(-2, -2, 0, 0): Fraction(3, 2), (0, -2, -2, -2): Fraction(5, 2),
         (0, 1, 0, 2): Fraction(5, 2), (2, 1, 2, -2): Fraction(15, 4)},
        {(-3, -2, 1, 0): Fraction(7, 4), (-1, -3, -3, 0): Fraction(3),
         (-1, -2, -1, 0): Fraction(5, 2), (-1, 0, 2, 3): Fraction(3, 2),
         (1, -1, -1, -4): Fraction(15, 4), (1, -1, 1, -4): Fraction(1, 4),
         (1, 2, -2, 1): Fraction(5, 4), (2, 0, 3, -3): Fraction(15, 4), (3, 3, -2, 3): Fraction(1),
         (3, 3, 3, 0): Fraction(3, 4)},
        0.40546510810816017, 0.36735303600210756,
    ),
    "seed_6_item_109": (
        4, [],
        {(1, 0, -1, -2): Fraction(1, 2), (1, 0, 0, -1): Fraction(3, 2),
         (2, -2, 0, 1): Fraction(1, 2)},
        {(-1, -1, 0, -4): Fraction(1, 2), (-1, 1, 0, 1): Fraction(5, 2),
         (1, 0, -2, 1): Fraction(3, 4), (1, 0, 1, -3): Fraction(3), (2, -2, 1, -1): Fraction(3, 2),
         (3, -4, 2, 1): Fraction(11, 4), (3, -1, 0, -3): Fraction(3, 2),
         (3, 1, -2, 0): Fraction(15, 4)},
        1.681053591848173, 1.6958520863983604,
    ),
    "seed_9_item_17": (
        4, [(1, 1, 1, 1)],
        {(-2, 0, -2, 0): Fraction(11, 4)},
        {(-4, -2, -4, -1): Fraction(13, 4), (-3, -3, 3, -1): Fraction(2),
         (-3, -1, -3, -3): Fraction(13, 4), (-2, -3, -2, -2): Fraction(3, 4),
         (-2, 0, -3, 3): Fraction(1, 4), (0, -1, 0, -3): Fraction(1),
         (0, 2, 0, 1): Fraction(13, 4), (1, -3, -2, 1): Fraction(3, 2), (1, -1, 2, 2): Fraction(1),
         (1, 2, -2, 1): Fraction(1), (1, 2, 2, -3): Fraction(3, 2), (2, 1, -3, 0): Fraction(3, 4)},
        1.1266796008704034, 1.1266796612102894,
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_ONE_PICK))
def test_basin_picked_once_costs_no_more_than_pinned(name):
    rank, constraints, v, w, now, _ = PINNED_ONE_PICK[name]
    p = Pair(WeightedVector(v), WeightedVector(w), StabilityProblem(rank, constraints))
    assert infimum_estimate(p) <= now + 1e-9


def _lower_dimensional_pairs(seed: int, count: int) -> list[Pair]:
    """Weighted pairs of ranks 2-4 whose w-support lies on a line or a plane,
    v a subset of it, under free and trace-zero problems."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        rank = 2 + i % 3
        base = [rng.randint(-2, 2) for _ in range(rank)]
        steps = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(1 + i % 2)]
        w = PointSet({
            tuple(b + sum(c * s[j] for c, s in zip(cs, steps)) for j, b in enumerate(base))
            for cs in [[rng.randint(-2, 2) for _ in steps] for _ in range(6)]
        })
        v = PointSet(rng.sample(w.points, rng.randint(1, len(w.points))))
        out.append(Pair(WeightedVector(v, random_magnitudes(rng, v)),
                        WeightedVector(w, random_magnitudes(rng, w)),
                        random_problem(rng, rank)))
    return out


def _w_is_lower_dimensional(p: Pair) -> bool:
    ctx = p.problem.ctx
    phi = [ctx.project(a) for a in p.w.support]
    offsets = [[x - y for x, y in zip(q, phi[0])] for q in phi[1:]]
    return len(_o_rref(offsets)[1]) < len(ctx.covectors(p.problem.rank))


def _seeded_search_pairs() -> list[Pair]:
    """Semistable, lower-dimensional, random and non-unimodular-constraint
    pairs of ranks 1-4, seeded."""
    rng = random.Random(77)
    pairs = semistable_pairs(34, 48) + _lower_dimensional_pairs(35, 24)
    pairs += [random_pair(rng, rank=1 + i % 4, max_points=6, lo=-3, hi=3, weighted=True)
              for i in range(40)]
    for problem in [StabilityProblem(2, [(2, 3)]), StabilityProblem(3, [(2, 3, 5)]),
                    StabilityProblem(4, [(2, 3, 4, 5)])] * 4:
        w = random_support(rng, problem.rank, 6, -3, 3)
        v = PointSet(rng.sample(w.points, rng.randint(1, len(w.points))))
        pairs.append(Pair(WeightedVector(v, random_magnitudes(rng, v)),
                          WeightedVector(w, random_magnitudes(rng, w)), problem))
    return pairs


class TestInfimumEstimateIsTheReferenceSearch:
    """The pruned ray probes return the float of the search that makes them
    all (`reference_infimum_estimate`), compared by `float.hex`."""

    def test_float_identical_on_seeded_pairs(self):
        kinds = {}
        for p in _seeded_search_pairs():
            est = infimum_estimate(p)
            assert est.hex() == reference_infimum_estimate(p).hex(), p
            if not math.isfinite(est):
                kinds["unstable"] = kinds.get("unstable", 0) + 1
                continue
            for kind in [("rank", p.problem.rank), ("constrained", bool(p.problem.constraints)),
                         ("v points > 1", len(p.v.support) > 1),
                         ("lower-dimensional w", _w_is_lower_dimensional(p))]:
                kinds[kind] = kinds.get(kind, 0) + 1
        assert len(kinds) == 4 + 2 + 2 + 2 + 1
        assert min(kinds.values()) >= 8, kinds

    @pytest.mark.parametrize("name", sorted(PINNED_SEARCH))
    def test_pinned_pairs_are_float_identical(self, monkeypatch, name):
        """And on the minus_ray pair the estimate is still the value of a
        ray probe with the - sign, which the floor must not skip."""
        p = _pinned_pair(name)
        rays = []  # (t, energy) per ray probe made
        real = stablepairs.energy._Line

        def recording(p, shift, along):
            energy = real(p, shift, along)
            if shift:  # rank 3 free: every line search shifts along two directions
                return energy
            return lambda t: rays.append((t, energy(t))) or rays[-1][1]

        monkeypatch.setattr(stablepairs.energy, "_Line", recording)
        est = infimum_estimate(p)
        assert est.hex() == reference_infimum_estimate(p).hex()
        if name == "minus_ray":
            assert any(t < 0 and e == est for t, e in rays)

    def test_fewer_ray_probes_than_the_reference(self, monkeypatch):
        """A machine-independent count: every probe that is not one of the
        line searches' (`_sweep_probes`) is a ray probe; the reference makes
        12 per certificate normal.  The probes made are the 1 504 that the
        O(1) floor of `_extents` does not skip."""
        probes = []
        energy = stablepairs.energy
        real_call = energy._Line.__call__
        monkeypatch.setattr(energy._Line, "__call__",
                            lambda line, t: probes.append(t) or real_call(line, t))
        made = reference = 0
        for p in semistable_pairs(32, 48):
            probes.clear()
            assert math.isfinite(infimum_estimate(p))
            made += len(probes) - sum(map(sum, _sweep_probes(p)))
            reference += 12 * len(certificate_normals(p.w.support, p.problem.ctx))
        assert 0 < made < reference
        assert made == 1504


# One side of a random line through the identity: (log magnitude, slope)
# per support point, the slopes 2<u, a> / den as `_slopes` rounds them.
_line_sides = st.lists(
    st.tuples(st.floats(-1000, 1000), st.integers(-40, 40), st.integers(1, 6)).map(
        lambda bxd: (bxd[0], 2 * bxd[1] / bxd[2])),
    min_size=1, max_size=16)


class TestRayFloor:
    @settings(max_examples=200, deadline=None)
    @given(w=_line_sides, v=_line_sides)
    def test_bounds_hold_at_every_ray_probe(self, w, v):
        """At both signs of the six distances, `_extents` bounds the largest
        exponent b + t k of each side, lo <= m <= hi and |m| <= size, and
        the floor `infimum_estimate` reads off them (`_floor`) is never above
        the one over every term, mw - mv - slack less its rounding room."""
        energy = stablepairs.energy
        (lw, kw), (lv, kv) = zip(*w), zip(*v)
        lw, kw, lv, kv = list(lw), list(kw), list(lv), list(kv)
        slack = math.log(len(lv))
        extents = [energy._extents(bases, slopes, energy._RAY_TS)
                   for bases, slopes in ((lw, kw), (lv, kv))]
        assert len(energy._RAY_TS) == 12
        for i, t in enumerate(energy._RAY_TS):
            (w_lo, w_hi, w_size), (v_lo, v_hi, v_size) = extents[0][i], extents[1][i]
            mw = max([b + t * k for b, k in zip(lw, kw)])
            mv = max([b + t * k for b, k in zip(lv, kv)])
            assert w_lo <= mw <= w_hi and abs(mw) <= w_size
            assert v_lo <= mv <= v_hi and abs(mv) <= v_size
            exact = mw - mv - slack - 1e-9 * (1.0 + abs(mw) + abs(mv))
            assert energy._floor(w_lo, v_hi, w_size, v_size, slack) <= exact


def _sweep_probes(p: Pair) -> list[list[int]]:
    """Probes per line search, per sweep, then per quotient direction: 2 * 8
    + 1 in sweep 1, one in each later sweep."""
    directions = len(p.problem.ctx.covectors(p.problem.rank))
    return [[1 if sweep else 2 * 8 + 1] * directions for sweep in range(4)]


class TestBasinPickedOnce:
    def test_probes_per_line_search(self, monkeypatch):
        """An exact, machine-independent count of the probes each line
        search makes (`_sweep_probes`): 17 + 3 = 20 per direction over the
        4 sweeps, where ternary steps in every sweep made 68."""
        probes, searched = [], []  # the line of each probe; of each Newton finish
        energy = stablepairs.energy
        real_call, real_newton = energy._Line.__call__, energy._Line.newton
        monkeypatch.setattr(energy._Line, "__call__",
                            lambda line, t: probes.append(line) or real_call(line, t))
        monkeypatch.setattr(energy._Line, "newton",
                            lambda line, lo, hi: searched.append(line) or real_newton(line, lo, hi))
        searches = 0
        for p in semistable_pairs(32, 48):
            probes.clear()
            searched.clear()
            assert math.isfinite(infimum_estimate(p))
            expected = [n for sweep in _sweep_probes(p) for n in sweep]
            assert [sum(q is line for q in probes) for line in searched] == expected
            assert sum(expected) == 20 * len(expected) // 4
            searches += len(expected)
        assert searches >= 100


class TestNewtonFinish:
    def test_never_above_the_ternary_search(self):
        """On the seeded search pairs, the search ends no higher than the
        frozen 40-step search, up to its own 1.4e-6 bracket.  Not on every
        pair: on five `energy` pool pairs it ends up to 0.313 higher, because
        only sweep 1 picks basins (`PINNED_ONE_PICK`)."""
        for p in _seeded_search_pairs():
            assert infimum_estimate(p) <= ternary_infimum_estimate(p) + 1e-5, p

    def test_few_derivative_evaluations_per_line(self, monkeypatch):
        """A machine-independent count: E' and E'' cost one `_moments` call
        per side, and a line takes at most 8 of these pairs on average."""
        calls = lines = 0
        moments, newton = stablepairs.energy._moments, stablepairs.energy._Line.newton

        def counting_moments(terms, k0, t):
            nonlocal calls
            calls += 1
            return moments(terms, k0, t)

        def counting_newton(line, lo, hi):
            nonlocal lines
            lines += 1
            return newton(line, lo, hi)

        monkeypatch.setattr(stablepairs.energy, "_moments", counting_moments)
        monkeypatch.setattr(stablepairs.energy._Line, "newton", counting_newton)
        for p in semistable_pairs(32, 48):
            assert math.isfinite(infimum_estimate(p))
        assert lines > 0
        assert calls / 2 / lines <= 8

    def test_zero_of_the_derivative_or_the_downhill_end(self):
        """log(e^t + e^-t) - log 1 has E'(t) = tanh t: the finish lands on
        its zero inside the bracket, and on the bracket end E' points to,
        after evaluating E' there, when the zero lies outside."""
        p = rank1_pair()
        along = stablepairs.energy._SubgroupLine(p, (Fraction(1, 2),)).sides()
        line = stablepairs.energy._Line(p, [], along)
        assert abs(line.newton(-0.3, 0.5)) <= 1e-12
        assert line.newton(0.2, 0.6) == 0.2
        assert line.newton(-0.6, -0.2) == -0.2
