"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  All
randomness is seeded; every exact claim is checked exactly.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from stablepairs import (
    Pair,
    PointSet,
    VarietyDatum,
    WeightedVector,
    affine_span_test,
    asymptotic_slope,
    degree_of,
    degrees,
    energy_at,
    find_degeneration,
    futaki_gen,
    impossible_degree_check,
    kempf_ness_distance,
    limit_support,
    perturb,
    plane_curve_mu,
    relative_invariant,
    semistable_bf,
    stabilizer_subtorus,
    stable,
    t_semistable,
    torus_oracle_bf,
    weight,
)
from stablepairs.lattice import dot, is_admissible
from stablepairs.linalg import in_span

from helpers import (
    box_search_degeneration,
    brute_hull_contains,
    facet_weight_semistable,
    random_binary_form,
    random_pair,
)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'}  {criterion}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


# Instances shared between criteria 1-3 and 9.
_RNG_MAIN = random.Random(0xACCE97)
_MAIN_INSTANCES = None


def main_instances():
    global _MAIN_INSTANCES
    if _MAIN_INSTANCES is None:
        _MAIN_INSTANCES = [
            random_pair(_RNG_MAIN, rank=_RNG_MAIN.randint(1, 4), max_points=8, lo=-5, hi=5)
            for _ in range(1000)
        ]
    return _MAIN_INSTANCES


_VERDICTS = {}


def verdict_of(idx, p):
    if idx not in _VERDICTS:
        _VERDICTS[idx] = t_semistable(p)
    return _VERDICTS[idx]


@pytest.mark.slow
def test_criterion_01_equivalence_of_the_three_decision_paths():
    start = time.perf_counter()
    disagreements = 0
    for idx, p in enumerate(main_instances()):
        by_lp = verdict_of(idx, p).semistable
        by_facets = facet_weight_semistable(p)
        by_oracle = brute_hull_contains(
            p.w.support.points, p.v.support.points, p.problem.constraints
        )
        if not (by_lp == by_facets == by_oracle):
            disagreements += 1
    elapsed = time.perf_counter() - start
    report(
        "1. criterion equivalence (LP vs facet weights vs half-space oracle, 1000 instances)",
        disagreements == 0 and elapsed < 60.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_02_witness_soundness():
    unstable = bad = 0
    for idx, p in enumerate(main_instances()):
        verdict = verdict_of(idx, p)
        if verdict.semistable:
            continue
        unstable += 1
        u = verdict.witness
        cons = p.problem.constraints
        if not is_admissible(u, cons):
            bad += 1
        elif not weight(u, p.w, cons) > weight(u, p.v, cons):
            bad += 1
    report(
        "2. witness soundness (exact weight gap on every unstable verdict)",
        unstable > 100 and bad == 0,
        f"{unstable} unstable, {bad} bad",
    )


def test_criterion_03_relative_invariant_certificates():
    checked = bad = 0
    for idx, p in enumerate(main_instances()):
        if not verdict_of(idx, p).semistable:
            continue
        for chi in p.v.support:
            d, exponents = relative_invariant(p, chi)
            checked += 1
            if d < 1 or any(n < 0 for n in exponents.values()):
                bad += 1
                continue
            if sum(exponents.values()) != d:
                bad += 1
                continue
            rank = p.problem.rank
            total = [
                sum(n * b[i] for b, n in exponents.items()) - d * chi[i]
                for i in range(rank)
            ]
            if not in_span(p.problem.constraints, total):
                bad += 1
    report(
        "3. relative invariants on every semistable instance and support character",
        checked > 300 and bad == 0,
        f"{checked} certificates",
    )


def test_criterion_04_binary_forms():
    start = time.perf_counter()
    rng = random.Random(0xB12A27)
    mismatches = 0
    for _ in range(500):
        e, d = rng.randint(0, 8), rng.randint(0, 8)
        f = random_binary_form(rng, e)
        g = random_binary_form(rng, d)
        if semistable_bf(f, g).semistable != torus_oracle_bf(f, g).semistable:
            mismatches += 1
    gap_failures = 0
    for _ in range(200):
        d = rng.randint(1, 8)
        assert impossible_degree_check(d - 1, d)
        f = random_binary_form(rng, d - 1)
        g = random_binary_form(rng, d)
        if semistable_bf(f, g).semistable:
            gap_failures += 1
    rigidity_failures = 0
    for _ in range(200):
        d = rng.randint(1, 8)
        f = random_binary_form(rng, d)
        g = f if rng.random() < 0.5 else random_binary_form(rng, d)
        if semistable_bf(f, g).semistable != (f.roots == g.roots):
            rigidity_failures += 1
    elapsed = time.perf_counter() - start
    report(
        "4. binary forms: oracle agreement (500), gap-one impossibility (200), equal-degree rigidity (200)",
        mismatches == 0 and gap_failures == 0 and rigidity_failures == 0 and elapsed < 120.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_05_energy_slope_equals_futaki_number():
    rng = random.Random(0x510FE)
    worst = 0.0
    count = 0
    while count < 50:
        rank = rng.randint(1, 3)
        problem = random_pair(rng, rank=rank).problem
        supports = [
            PointSet(
                {
                    tuple(rng.randint(-3, 3) for _ in range(rank))
                    for _ in range(rng.randint(1, 5))
                }
            )
            for _ in range(2)
        ]
        mags = [
            {p: Fraction(rng.randint(1, 16), 4) for p in s} for s in supports
        ]
        p = Pair(
            WeightedVector(supports[0], mags[0]),
            WeightedVector(supports[1], mags[1]),
            problem,
        )
        u = tuple(rng.randint(-1, 1) for _ in range(rank))
        if not is_admissible(u, problem.constraints):
            continue
        if any(abs(dot(u, pt)) > 10 for pt in supports[0]) or any(
            abs(dot(u, pt)) > 10 for pt in supports[1]
        ):
            continue
        count += 1
        worst = max(worst, abs(asymptotic_slope(p, u) - futaki_gen(u, p)))
    report(
        "5. asymptotic energy slope matches the generalized Futaki number (50 instances)",
        worst <= 1e-6,
        f"worst |slope - F| = {worst:.2e}",
    )


def test_criterion_06_energy_equals_log_tan_square_distance():
    rng = random.Random(0xD157)
    count = 0
    worst = 0.0
    while count < 100:
        rank = rng.randint(1, 3)
        p = random_pair(rng, rank=rank, max_points=4, lo=-2, hi=2, weighted=True)
        s = [rng.uniform(-3, 3) for _ in range(rank)]
        if p.problem.constraints:
            mean = sum(s) / rank
            s = [x - mean for x in s]
        e = energy_at(p, s)
        if abs(e) > 16:
            continue  # keeps the arccos path inside its well-conditioned range
        count += 1
        kn = kempf_ness_distance(p, s)
        err = abs(kn - e) / max(1.0, abs(e), abs(kn))
        worst = max(worst, err)
        if not math.isclose(kn, e, rel_tol=1e-10, abs_tol=1e-10):
            report("6. Kempf-Ness distance identity (100 torus elements)", False,
                   f"err={err:.2e}")
    report(
        "6. Kempf-Ness distance identity (100 torus elements)",
        True,
        f"worst rel err = {worst:.2e}",
    )


@pytest.mark.slow
def test_criterion_07_degeneration_round_trip_and_box_consistency():
    rng = random.Random(0x81C4A2)
    successes = infeasible = bad_round_trip = box_beats_lp = 0
    for _ in range(60):
        dim = rng.randint(1, 3)
        pts = {
            tuple(rng.randint(-3, 3) for _ in range(dim))
            for _ in range(rng.randint(2, 6))
        }
        A = PointSet(pts)
        if len(A) < 2:
            continue
        subsets = []
        for size in range(1, len(A)):
            subsets.extend(itertools.combinations(A.points, size))
        for B_pts in subsets:
            B = PointSet(B_pts)
            u = find_degeneration(A, B)
            if u is None:
                infeasible += 1
                if box_search_degeneration(A.points, B.points, box=6) is not None:
                    box_beats_lp += 1
            else:
                successes += 1
                if limit_support(A, u) != B:
                    bad_round_trip += 1
    report(
        "7. degeneration round trip and box-search consistency",
        successes > 200 and infeasible > 50 and bad_round_trip == 0 and box_beats_lp == 0,
        f"{successes} found, {infeasible} infeasible",
    )


_STABLE_RESULTS = None


def stability_scan():
    global _STABLE_RESULTS
    if _STABLE_RESULTS is None:
        rng = random.Random(0x57AB1E)
        results = []
        for _ in range(200):
            p = random_pair(rng, rank=rng.randint(1, 3), max_points=5, lo=-3, hi=3)
            results.append((p, stable(p, 4)))
        _STABLE_RESULTS = results
    return _STABLE_RESULTS


def test_criterion_08_stability_exponent_monotonicity():
    stable_hits = violations = 0
    for p, verdict in stability_scan():
        if not verdict.is_stable:
            continue
        stable_hits += 1
        q = degree_of(p.v, p.problem)
        if not t_semistable(perturb(p, verdict.exponent + 1, q)).semistable:
            violations += 1
    report(
        "8. stability exponent monotonicity (200 random pairs)",
        stable_hits >= 20 and violations == 0,
        f"{stable_hits} stable pairs",
    )


def test_criterion_09_finite_automorphisms_and_affine_spans():
    stable_bad = 0
    stable_hits = 0
    for p, verdict in stability_scan():
        if verdict.is_stable:
            stable_hits += 1
            if stabilizer_subtorus(p).rank != 0:
                stable_bad += 1
    semi_bad = 0
    semi_hits = 0
    for idx, p in enumerate(main_instances()):
        if verdict_of(idx, p).semistable:
            semi_hits += 1
            if not affine_span_test(p):
                semi_bad += 1
    report(
        "9. stable pairs have trivial stabilizer; semistable pairs have coinciding affine spans",
        stable_hits >= 20 and semi_hits >= 100 and stable_bad == 0 and semi_bad == 0,
        f"{stable_hits} stable, {semi_hits} semistable",
    )


def test_criterion_10_degree_arithmetic():
    report_conic = degrees(VarietyDatum(1, 2, 1, 2))
    conic_ok = (
        report_conic.deg_resultant == 4
        and report_conic.deg_hyperdiscriminant == 2
        and report_conic.common_degree == 8
        and report_conic.lambda_partition == (4, 4, 0)
        and report_conic.mu_partition == (8, 0, 0)
    )
    oracle_ok = True
    for d in range(2, 7):
        genus = (d - 1) * (d - 2) // 2
        rep = degrees(VarietyDatum(1, d, plane_curve_mu(d, genus), 2), genus=genus)
        if rep.deg_hyperdiscriminant != d * (d - 1):
            oracle_ok = False
    report(
        "10. degree report for the plane conic and the plane-curve dual-degree oracle",
        conic_ok and oracle_ok,
    )
