import math
import random
from fractions import Fraction

import pytest

import stablepairs.energy
from stablepairs import (
    Pair,
    PointSet,
    StabilityProblem,
    TorusElement,
    WeightedVector,
    asymptotic_slope,
    certificate_normals,
    degree_of,
    energy_along,
    energy_at,
    futaki_gen,
    infimum_estimate,
    kempf_ness_distance,
    perturb,
    properness_slope_check,
    t_semistable,
)

from stablepairs.linalg import nullspace

from helpers import random_magnitudes, random_pair, random_problem, random_support

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
        assert energy_at(p, TorusElement([-10.0])) == pytest.approx(20.0, abs=1e-6)

    def test_constraint_violation_rejected(self):
        prob = StabilityProblem.special_linear(1)
        p = Pair(WeightedVector([(1, 0)]), WeightedVector([(1, 0), (0, 1)]), prob)
        with pytest.raises(ValueError):
            energy_at(p, [1.0, 1.0])
        energy_at(p, [1.0, -1.0])  # admissible direction is fine

    def test_matches_uncached_formula_bit_for_bit(self):
        def log_norm_sq(vec, s):
            terms = [
                math.log(float(mag)) + 2.0 * sum(si * ai for si, ai in zip(s, a))
                for a, mag in zip(vec.support.points, vec.magnitudes)
            ]
            m = max(terms)
            return m + math.log(sum(math.exp(t - m) for t in terms))

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
            assert slope == pytest.approx(futaki_gen(u, p), abs=1e-6)


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
            est = infimum_estimate(p, sweeps=1)
            flagged = est == -math.inf
            assert flagged == (not t_semistable(p).semistable)
            if flagged:
                unstable += 1
        assert unstable > 40


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
            energy = stablepairs.energy._line(
                p,
                [(c, stablepairs.energy._pairings(p, e)) for c, e in shift],
                stablepairs.energy._pairings(p, d),
            )
            for t in (-8.0, -1.3, 0.0, 0.7, 5.0):
                s = [sum(c * float(e[i]) for c, e in shift) + t * float(d[i])
                     for i in range(rank)]
                e = energy_at(p, s)
                assert abs(energy(t) - e) <= 1e-12 * max(1.0, abs(e))
        del kinds[1, True]  # rank 1 has no trace-zero problem with a nonzero direction
        assert min(kinds.values()) >= 8

    def test_inadmissible_direction_rejected_exactly(self):
        p = Pair(WeightedVector([(1, 0)]), WeightedVector([(1, 0), (0, 1)]),
                 StabilityProblem.special_linear(1))
        with pytest.raises(ValueError):
            stablepairs.energy._pairings(p, (1, 1))
        with pytest.raises(ValueError):
            stablepairs.energy._pairings(p, (Fraction(1, 3), Fraction(-1, 3) + Fraction(1, 10**30)))
        d = (Fraction(1, 3), Fraction(-1, 3))
        assert stablepairs.energy._pairings(p, d) == tuple(
            [float(2 * (d[0] * a[0] + d[1] * a[1])) for a in vec.support.points]
            for vec in (p.w, p.v)
        )


class TestInfimumEstimateProbes:
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
