import math
import random
from fractions import Fraction

import pytest

from stablepairs import (
    BinaryForm,
    mobius_act,
    semistable_bf,
    torus_oracle_bf,
)
from stablepairs.binary_forms import critical_points, normalize_root

from helpers import impossible_degree_check, random_binary_form

ONE = BinaryForm.constant()


class TestBinaryForm:
    def test_degree_is_multiplicity_sum(self):
        f = BinaryForm({(0, 1): 2, (1, 0): 1})
        assert f.degree == 3
        assert f.ord_at((0, 1)) == 2
        assert f.ord_at((5, 3)) == 0

    def test_root_normalization(self):
        assert normalize_root(2, -4) == (-1, 2)
        assert normalize_root(-3, 0) == (1, 0)
        assert normalize_root(Fraction(1, 2), 1) == (1, 2)
        with pytest.raises(ValueError):
            normalize_root(0, 0)

    @pytest.mark.parametrize("kind", [int, Fraction, str])
    def test_root_normalization_against_an_oracle(self, kind):
        """The primitive integer multiple of (p, q) with q > 0, or p > 0
        when q = 0, found by a search over small multiples."""
        def oracle(p, q):
            for n in range(1, 10_000):
                a, b = p * n, q * n
                if a.denominator == 1 and b.denominator == 1:
                    a, b = int(a), int(b)
                    g = math.gcd(a, b)
                    a, b = a // g, b // g
                    return (-a, -b) if b < 0 or (b == 0 and a < 0) else (a, b)

        rng = random.Random(17)
        cases = [(0, 3), (0, -3), (5, 0), (-5, 0), (-2, -4), (6, -9)]
        for _ in range(60):
            if kind is int:
                cases.append((rng.randint(-12, 12), rng.randint(-12, 12)))
            else:
                cases.append(tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 8))
                                   for _ in range(2)))
        for p, q in cases:
            p, q = Fraction(p), Fraction(q)
            if p == 0 and q == 0:
                continue
            args = (p, q) if kind is not int else (int(p), int(q))
            if kind is str:
                args = (str(p), str(q))
            assert normalize_root(*args) == oracle(p, q)

    def test_parse_round_trip(self):
        f = BinaryForm.parse("[0:1]^2 [1:0]")
        assert f == BinaryForm({(0, 1): 2, (1, 0): 1})
        assert BinaryForm.parse(str(f)) == f
        assert BinaryForm.parse("1") == ONE
        with pytest.raises(ValueError):
            BinaryForm.parse("x^2")

    def test_coefficients(self):
        # (x - y)(x + y) = x^2 - y^2: a gap in the middle of the support
        f = BinaryForm({(1, 1): 1, (-1, 1): 1})
        assert f.coefficients() == [-1, 0, 1]
        assert f.diagonal_support() == [(-2,), (2,)]

    def test_coefficients_match_multiplicity(self):
        # y^2 x: top coefficient zero twice over
        f = BinaryForm({(1, 0): 2, (0, 1): 1})
        assert f.coefficients() == [0, 1, 0, 0]

    @pytest.mark.parametrize("seed", range(4))
    def test_diagonal_support_is_the_nonzero_pattern_of_the_coefficients(self, seed):
        rng = random.Random(seed)
        forms = [BinaryForm.parse("[1:1] [-1:1]"), BinaryForm.parse("[3:2]^2 [-3:2]^2 [0:1]")]
        forms += [random_binary_form(rng, rng.randint(0, 9)) for _ in range(100)]
        gaps = 0
        for f in forms:
            coeffs = f.coefficients()
            assert all(type(c) is int for c in coeffs)
            # f(x, 1) is the product of the root factors q x - p.
            for x in range(-3, 4):
                assert sum(c * x**i for i, c in enumerate(coeffs)) == math.prod(
                    (q * x - p) ** m for (p, q), m in f.roots)
            pattern = [(2 * i - f.degree,) for i, c in enumerate(coeffs) if c != 0]
            assert f.diagonal_support() == pattern
            gaps += len(pattern) < f.degree + 1
        assert gaps >= 2


class TestSemistableBf:
    def test_double_root_violates(self):
        g = BinaryForm({(0, 1): 2, (1, 0): 1})
        verdict = semistable_bf(ONE, g)
        assert not verdict.semistable
        assert verdict.violating_point == (0, 1)

    def test_three_simple_roots_pass(self):
        g = BinaryForm({(0, 1): 1, (1, 0): 1, (1, 1): 1})
        assert semistable_bf(ONE, g).semistable

    def test_equal_degree_equal_form(self):
        f = BinaryForm({(2, 1): 1, (0, 1): 2})
        assert semistable_bf(f, f).semistable

    def test_degree_gap_rejected(self):
        f = BinaryForm({(0, 1): 2, (1, 0): 2})
        g = BinaryForm({(0, 1): 1, (1, 0): 1})
        verdict = semistable_bf(f, g)
        assert not verdict.semistable
        assert verdict.reason == "degree"


class TestImpossibleDegree:
    def test_examples(self):
        assert impossible_degree_check(2, 3)
        assert not impossible_degree_check(3, 3)
        assert not impossible_degree_check(0, 0)

    def test_gap_one_never_semistable(self):
        rng = random.Random(404)
        for _ in range(60):
            d = rng.randint(1, 7)
            f = random_binary_form(rng, d - 1)
            g = random_binary_form(rng, d)
            assert not semistable_bf(f, g).semistable


class TestMobius:
    def test_identity(self):
        f = BinaryForm({(0, 1): 1, (1, 0): 2})
        assert mobius_act(((1, 0), (0, 1)), f) == f

    def test_swap_sends_zero_to_infinity(self):
        f = BinaryForm({(0, 1): 1})
        assert mobius_act(((0, 1), (1, 0)), f).roots == (((1, 0), 1),)

    def test_shear(self):
        f = BinaryForm({(-1, 1): 1})
        assert mobius_act(((1, 1), (0, 1)), f).roots == (((0, 1), 1),)

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError):
            mobius_act(((1, 1), (2, 2)), ONE)

    def test_degree_preserved(self):
        rng = random.Random(3)
        for _ in range(20):
            f = random_binary_form(rng, rng.randint(0, 6))
            out = mobius_act(((3, 1), (2, 1)), f)
            assert out.degree == f.degree


class TestTorusOracle:
    def test_agrees_on_named_examples(self):
        g_bad = BinaryForm({(0, 1): 2, (1, 0): 1})
        g_good = BinaryForm({(0, 1): 1, (1, 0): 1, (1, 1): 1})
        assert not torus_oracle_bf(ONE, g_bad).semistable
        assert torus_oracle_bf(ONE, g_good).semistable
        f = BinaryForm({(1, 1): 2, (1, 2): 1})
        assert torus_oracle_bf(f, f).semistable

    def test_detects_degree_gap_behind_blocked_fixed_points(self):
        """Both coordinate points carry heavy roots of f, so only a
        root-free torus sees that deg f exceeds deg g."""
        f = BinaryForm({(0, 1): 2, (1, 0): 2})
        g = BinaryForm({(0, 1): 1, (1, 0): 1})
        assert not torus_oracle_bf(f, g).semistable

    def test_critical_points_include_a_root_free_one(self):
        f = BinaryForm({(0, 1): 1})
        g = BinaryForm({(1, 0): 1})
        pts = critical_points(f, g)
        roots = set(f.root_points()) | set(g.root_points())
        assert any(p not in roots for p in pts)

    def test_random_agreement(self):
        rng = random.Random(606)
        mismatches = []
        for _ in range(150):
            e, d = rng.randint(0, 6), rng.randint(0, 6)
            f = random_binary_form(rng, e)
            g = random_binary_form(rng, d)
            if semistable_bf(f, g).semistable != torus_oracle_bf(f, g).semistable:
                mismatches.append((f, g))
        assert not mismatches


class TestSpecializations:
    def test_trivial_f_reduces_to_max_multiplicity(self):
        rng = random.Random(505)
        for _ in range(60):
            d = rng.randint(1, 8)
            g = random_binary_form(rng, d)
            max_mult = max(m for _, m in g.roots)
            expected = max_mult <= Fraction(d, 2)
            assert semistable_bf(ONE, g).semistable == expected

    def test_equal_degree_rigidity(self):
        rng = random.Random(808)
        equal_cases = different_cases = 0
        for _ in range(80):
            d = rng.randint(1, 6)
            f = random_binary_form(rng, d)
            g = f if rng.random() < 0.4 else random_binary_form(rng, d)
            verdict = semistable_bf(f, g)
            same_roots = f.roots == g.roots
            assert verdict.semistable == same_roots
            if same_roots:
                equal_cases += 1
            else:
                different_cases += 1
        assert equal_cases > 10 and different_cases > 10
