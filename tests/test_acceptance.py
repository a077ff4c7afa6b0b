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
    StabilityProblem,
    StableVerdict,
    VarietyDatum,
    Verdict,
    WeightedVector,
    affine_span_test,
    asymptotic_slope,
    certificate_normals,
    check_relative_invariant,
    cross_polytope,
    degree_of,
    degrees,
    energy_at,
    find_degeneration,
    futaki_gen,
    limit_support,
    perturb,
    plane_curve_mu,
    relative_invariant,
    semistable_bf,
    stabilizer_subtorus,
    stable,
    t_semistable,
    torus_oracle_bf,
)
from stablepairs.lattice import dot, is_admissible
from stablepairs.linalg import in_span

from helpers import (
    _o_in_span,
    _o_rref,
    box_search_degeneration,
    brute_hull_contains,
    facet_weight_semistable,
    impossible_degree_check,
    kempf_ness_distance,
    random_binary_form,
    random_magnitudes,
    random_pair,
    weight,
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


# Criterion 11: the symmetries of a problem act on its verdicts.


def _symmetry_instances():
    """Seeded acceptance pairs of ranks 2-4 on free and trace-zero
    problems with the cross-polytope reference: random supports, and v
    drawn inside a box of w-points, so that semistable and stable pairs
    occur too."""
    rng = random.Random(0x5E77)
    pairs = []
    for rank in (2, 3, 4):
        box = list(itertools.product((-2, 2), repeat=rank))
        for constraints in ([], [(1,) * rank]):
            problem = StabilityProblem(rank, constraints, cross_polytope(rank))
            for _ in range(8):
                p = random_pair(rng, rank, max_points=6, lo=-3, hi=3)
                pairs.append(Pair(p.v, p.w, problem))
            for _ in range(4):
                v = {tuple(rng.randint(-1, 1) for _ in range(rank)) for _ in range(3)}
                w = rng.sample(box, rng.randint(rank + 1, len(box)))
                pairs.append(Pair(WeightedVector(v), WeightedVector(w), problem))
    return pairs


def _symmetries(rng, p):
    """(name, action on points, action on covectors) for a coordinate
    permutation, a common translation and, on free problems, a coordinate
    sign flip.  Each fixes the constraints and the reference polytope."""
    rank = p.problem.rank
    perm = list(range(rank))
    while perm == sorted(perm):
        rng.shuffle(perm)
    shift = [rng.randint(-3, 3) for _ in range(rank)]
    signs = [rng.choice((-1, 1)) for _ in range(rank)]
    permute = lambda a: tuple(a[i] for i in perm)
    flip = lambda a: tuple(s * c for s, c in zip(signs, a))
    yield "permutation", permute, permute
    yield "translation", lambda a: tuple(c + t for c, t in zip(a, shift)), tuple
    if not p.problem.constraints:
        yield "sign flip", flip, flip


def _acted_pair(p, act):
    def vec(wv):
        return WeightedVector({act(a): m for a, m in zip(wv.support.points, wv.magnitudes)})

    return Pair(vec(p.v), vec(p.w), p.problem)


def _acted_verdict(verdict, p, act, act_u, image):
    """The verdict of p carried to its image: the witness through act_u,
    the convex weights re-aligned with the sorted w-support of the image."""
    if not verdict.semistable:
        return Verdict(False, act_u(verdict.witness))
    weights = {}
    for a, lam in verdict.weights.items():
        by_point = dict(zip(map(act, p.w.support.points), lam))
        weights[act(a)] = tuple(by_point[b] for b in image.w.support.points)
    return Verdict(True, weights=weights)


def _verdict_verifies(p, verdict):
    """The witness has an exact weight gap, or the convex weights of every
    v-point outside the w-support combine the w-points to it modulo the
    constraints, in this test's own arithmetic."""
    cons = p.problem.constraints
    if not verdict.semistable:
        u = verdict.witness
        return is_admissible(u, cons) and weight(u, p.w, cons) > weight(u, p.v, cons)
    W = p.w.support.points
    if set(verdict.weights) != {a for a in p.v.support if a not in p.w.support}:
        return False
    for a, lam in verdict.weights.items():
        if len(lam) != len(W) or sum(lam) != 1 or min(lam) < 0:
            return False
        combo = [sum(l * b[i] for l, b in zip(lam, W)) for i in range(len(a))]
        if not _o_in_span(cons, [c - x for c, x in zip(combo, a)]):
            return False
    return True


def _full_dimensional(points, constraints):
    offsets = [[a - b for a, b in zip(q, points[0])] for q in points[1:]]
    return len(_o_rref([*offsets, *constraints])[0]) == len(points[0])


def _scaled(wv, c):
    return WeightedVector(wv.support, [c * m for m in wv.magnitudes])


def _magnitudes_check(rng, p, u):
    """Give p random squared magnitudes, then scale both magnitude vectors
    by one rational c: `energy_at` at the identity and `asymptotic_slope`
    along u stay put within float tolerance.  Scaling v's alone shifts the
    energy at the identity by -log c."""
    v, w = (WeightedVector(x.support, random_magnitudes(rng, x.support)) for x in (p.v, p.w))
    base = Pair(v, w, p.problem)
    c = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, 1000))
    both = Pair(_scaled(v, c), _scaled(w, c), p.problem)
    only_v = Pair(_scaled(v, c), w, p.problem)
    identity = [0.0] * p.problem.rank
    e = energy_at(base, identity)
    close = lambda a, b: math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)
    return (
        close(energy_at(both, identity), e)
        and close(energy_at(only_v, identity), e - math.log(c))
        and close(asymptotic_slope(both, u), asymptotic_slope(base, u))
    )


def test_criterion_11_verdicts_and_certificates_transform_with_the_symmetries():
    """Permuting coordinates, translating both supports and (on free
    problems) flipping coordinate signs leaves every `t_semistable`
    verdict unchanged, and each certificate moves with the symmetry: the
    image's witness verifies on the image, the original witness carried
    over verifies too, and the certificate normals of a full-dimensional
    w-hull are carried to those of its image.  The limit supports along
    the witness, argmin faces, are carried to those along the image
    witness.  The `relinv` certificate of each v-point of the image
    verifies on the image, and so does the original one carried over; the
    two are not compared, as LP weights are not canonical under a
    coordinate reorder.  `stable` is compared under the permutations and
    sign flips alone, which fix the reference polytope Q: a translation
    moves both supports against Q, and with them the module degree and the
    perturbed pairs.  With B the limit support of a support V along the
    witness, when B is not V, the degeneration covector of the image of B
    in the image of V realizes it, and so does the original one carried
    over.  The energy estimate is not compared (it depends on the
    coordinate order), but `energy_at` at the identity and
    `asymptotic_slope` are, under a common rational scaling of the
    squared magnitudes.  Scaling both supports by c in {2, 3} leaves the
    `t_semistable` verdict unchanged: the scaled pair's certificate and
    the original one carried over verify on it, and the witness's Futaki
    number scales by c."""
    rng = random.Random(0x5E78)
    mag_rng = random.Random(0x5E79)
    checks = mismatches = stable_checks = normal_checks = 0
    limit_checks = relinv_checks = magnitude_checks = degeneration_checks = scaling_checks = 0
    kinds = set()
    for p in _symmetry_instances():
        verdict = t_semistable(p)
        base_stable = stable(p, 4)
        ctx = p.problem.ctx
        full = _full_dimensional(p.w.support.points, p.problem.constraints)
        normals = certificate_normals(p.w.support, ctx) if full else ()
        if verdict.semistable:
            certificates = {chi: relative_invariant(p, chi, verdict) for chi in p.v.support}
        else:
            faces = []  # (V, its face B along the witness, B's degeneration covector)
            for x in (p.v, p.w):
                face = limit_support(x.support, verdict.witness)
                if face != x.support:
                    faces.append((x.support, face, find_degeneration(x.support, face, ctx)))
        for name, act, act_u in _symmetries(rng, p):
            image = _acted_pair(p, act)
            image_verdict = t_semistable(image)
            kinds.add((name, verdict.semistable))
            checks += 1
            ok = (
                image_verdict.semistable == verdict.semistable
                and _verdict_verifies(image, image_verdict)
                and _verdict_verifies(image, _acted_verdict(verdict, p, act, act_u, image))
            )
            if name != "translation":
                s = stable(image, 4)
                ok = ok and (s.status, s.exponent) == (base_stable.status, base_stable.exponent)
                stable_checks += base_stable.status != StableVerdict.UNSTABLE_BASE
            if full:
                normal_checks += 1
                image_normals = certificate_normals(image.w.support, ctx)
                ok = ok and set(image_normals) == set(map(act_u, normals))
            if not verdict.semistable:
                u = verdict.witness
                for x, y in ((p.v, image.v), (p.w, image.w)):
                    limit_checks += 1
                    ok = ok and set(limit_support(y.support, act_u(u))) == set(
                        map(act, limit_support(x.support, u))
                    )
                for V, face, u0 in faces:
                    degeneration_checks += 1
                    gV, gB = PointSet(map(act, V)), PointSet(map(act, face))
                    u_image = find_degeneration(gV, gB, ctx)
                    ok = (
                        ok
                        and u_image is not None
                        and is_admissible(u_image, p.problem.constraints)
                        and limit_support(gV, u_image) == gB
                        and limit_support(gV, act_u(u0)) == gB
                    )
            elif image_verdict.semistable:
                for chi, (d, exponents) in certificates.items():
                    relinv_checks += 1
                    d_image, e_image = relative_invariant(image, act(chi), image_verdict)
                    carried = {act(b): n for b, n in exponents.items()}
                    ok = (
                        ok
                        and check_relative_invariant(image, act(chi), d_image, e_image)
                        and check_relative_invariant(image, act(chi), d, carried)
                    )
            mismatches += not ok
        for c in (2, 3):
            dilate = lambda a: tuple(c * x for x in a)
            scaled = _acted_pair(p, dilate)
            scaled_verdict = t_semistable(scaled)
            scaling_checks += 1
            ok = (
                scaled_verdict.semistable == verdict.semistable
                and _verdict_verifies(scaled, scaled_verdict)
                and _verdict_verifies(scaled, _acted_verdict(verdict, p, dilate, tuple, scaled))
            )
            if not verdict.semistable:
                ok = ok and futaki_gen(verdict.witness, scaled) == c * futaki_gen(verdict.witness, p)
            mismatches += not ok
        u = verdict.witness or (1, -1, *[0] * (p.problem.rank - 2))
        magnitude_checks += 1
        mismatches += not _magnitudes_check(mag_rng, p, u)
    names = ("permutation", "translation", "sign flip")
    report(
        "11. verdicts, certificates, limit supports and energies transform with the symmetries",
        mismatches == 0
        and kinds == {(n, s) for n in names for s in (False, True)}
        and stable_checks >= 20
        and normal_checks >= 50
        and limit_checks >= 50
        and relinv_checks >= 50
        and degeneration_checks >= 50
        and scaling_checks == 2 * len(_symmetry_instances())
        and magnitude_checks == len(_symmetry_instances()),
        f"{checks} images, {stable_checks} stable checks past the base, "
        f"{normal_checks} normal sets, {limit_checks} limit supports, "
        f"{degeneration_checks} degeneration covectors, {relinv_checks} relinv certificates, "
        f"{scaling_checks} support scalings, {magnitude_checks} magnitude scalings, "
        f"{mismatches} mismatches",
    )
