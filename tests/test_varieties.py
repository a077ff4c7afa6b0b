import random
from fractions import Fraction

import pytest

from stablepairs import (
    Pair,
    StabilityProblem,
    VarietyDatum,
    WeightedVector,
    certificate_normals,
    degree_of,
    degrees,
    futaki_gen,
    perturb,
    plane_curve_mu,
    scale,
    t_semistable,
)

from helpers import mabuchi_weight_inequality, random_pair, variety_pair, weight


class TestVarietyDatum:
    def test_validation(self):
        VarietyDatum(1, 2, 1, 2)
        with pytest.raises(ValueError):
            VarietyDatum(0, 2, 1, 2)
        with pytest.raises(ValueError):
            VarietyDatum(1, 1, 1, 2)
        with pytest.raises(ValueError):
            VarietyDatum(1, 2, 1, 1)  # ambient too small

    def test_nonpositive_hyperdiscriminant_degree_rejected(self):
        with pytest.raises(ValueError):
            VarietyDatum(1, 2, 2, 2)  # 2d - d*mu = 0


class TestDegrees:
    def test_plane_conic(self):
        report = degrees(VarietyDatum(1, 2, 1, 2))
        assert report.deg_resultant == 4
        assert report.deg_hyperdiscriminant == 2
        assert report.common_degree == 8
        assert report.lambda_partition == (4, 4, 0)
        assert report.mu_partition == (8, 0, 0)

    def test_genus_oracle_flags_bad_mu(self):
        with pytest.raises(ValueError):
            degrees(VarietyDatum(1, 3, Fraction(1, 3), 9), genus=1)
        report = degrees(VarietyDatum(1, 3, 0, 9), genus=1)
        assert report.deg_hyperdiscriminant == 6

    def test_non_integer_hyperdiscriminant_degree_rejected(self):
        with pytest.raises(ValueError):
            degrees(VarietyDatum(2, 3, Fraction(1, 2), 5))

    def test_plane_curve_oracle(self):
        """Dual degree of a smooth plane curve: d(d-1), via genus-consistent mu."""
        for d in range(2, 7):
            genus = (d - 1) * (d - 2) // 2
            mu = plane_curve_mu(d, genus)
            report = degrees(VarietyDatum(1, d, mu, 2), genus=genus)
            assert report.deg_hyperdiscriminant == d * (d - 1) == 2 * d + 2 * genus - 2

    def test_common_degree_divisibility(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 3)
            d = rng.randint(2, 6)
            # mu with d*mu integral keeps the hyperdiscriminant degree integral
            mu = Fraction(rng.randint(-2 * d, n * (n + 1) * d - 1), d)
            try:
                report = degrees(VarietyDatum(n, d, mu, n + rng.randint(1, 3)))
            except ValueError:
                continue
            assert report.common_degree % n == 0
            assert report.common_degree % (n + 1) == 0
            assert report.deg_resultant == d * (n + 1)


class TestVarietyPair:
    def test_scaling_law(self):
        prob = StabilityProblem.free(2)
        report = degrees(VarietyDatum(1, 2, 1, 2))
        r_data = WeightedVector([(1, 0)])
        d_data = WeightedVector([(0, 1)])
        out = variety_pair(r_data, d_data, report, prob)
        assert out.v.support.points == ((2, 0),)
        assert out.w.support.points == ((0, 4),)

    def test_equal_supports_reduce_to_scaled_containment(self):
        prob = StabilityProblem.free(2)
        report = degrees(VarietyDatum(1, 2, 1, 2))
        rng = random.Random(21)
        for _ in range(20):
            pts = {
                (rng.randint(-3, 3), rng.randint(-3, 3))
                for _ in range(rng.randint(1, 5))
            }
            wv = WeightedVector(pts)
            out = variety_pair(wv, wv, report, prob)
            expected = t_semistable(
                Pair(
                    WeightedVector(scale(wv.support, report.deg_hyperdiscriminant)),
                    WeightedVector(scale(wv.support, report.deg_resultant)),
                    prob,
                )
            ).semistable
            assert t_semistable(out).semistable == expected

    def test_futaki_round_trip(self):
        prob = StabilityProblem.free(2)
        report = degrees(VarietyDatum(1, 2, 1, 2))
        r_data = WeightedVector([(1, 0), (0, 1)])
        d_data = WeightedVector([(1, 1), (-1, 0)])
        out = variety_pair(r_data, d_data, report, prob)
        for u in ((1, 0), (0, -1), (2, 3)):
            expected = report.deg_resultant * weight(u, d_data) - (
                report.deg_hyperdiscriminant * weight(u, r_data)
            )
            assert futaki_gen(u, out) == expected


class TestMabuchiWeightInequality:
    def test_zero_subgroup(self):
        prob = StabilityProblem.free(2)
        report = degrees(VarietyDatum(1, 2, 1, 2))
        wv = WeightedVector([(1, 0)])
        assert mabuchi_weight_inequality(wv, wv, report, 1, 1, (0, 0), prob)

    def test_equality_case(self):
        prob = StabilityProblem.free(1)
        report = degrees(VarietyDatum(1, 2, 1, 2))
        r_data = WeightedVector([(0,)])
        d_data = WeightedVector([(0,)])
        # both sides zero along any subgroup when everything is weightless
        assert mabuchi_weight_inequality(r_data, d_data, report, 3, 0, (5,), prob)

    def test_matches_perturbed_pair_over_certificate_normals(self):
        rng = random.Random(303)
        report = degrees(VarietyDatum(1, 2, 1, 2))
        deg_r = report.deg_resultant
        deg_delta = report.deg_hyperdiscriminant
        for _ in range(25):
            rank = rng.randint(1, 3)
            base = random_pair(rng, rank=rank, max_points=4, lo=-2, hi=2)
            prob = base.problem
            r_data, d_data = base.v, base.w
            pair_scaled = variety_pair(r_data, d_data, report, prob)
            m = rng.randint(1, 3)
            q = degree_of(pair_scaled.v, prob)
            pert = perturb(pair_scaled, m, q)
            normals = set(certificate_normals(pert.w.support, prob.ctx))
            normals |= set(certificate_normals(pert.v.support, prob.ctx))
            by_weights = all(
                mabuchi_weight_inequality(
                    WeightedVector(scale(r_data.support, deg_delta)),
                    WeightedVector(scale(d_data.support, deg_r)),
                    # the scaled pair plays (v, w); report degrees 1 keep
                    # weights untouched a second time
                    _IDENTITY_REPORT,
                    m,
                    q,
                    u,
                    prob,
                )
                for u in normals
            )
            assert by_weights == t_semistable(pert).semistable


# degree report with unit exponents: weights pass through unscaled
from stablepairs import DegreeReport

_IDENTITY_REPORT = DegreeReport(1, 1, 1, (1,), (1,))
