import itertools
import random

import pytest

from stablepairs import (
    ContainmentContext,
    PointSet,
    extension_criterion,
    find_degeneration,
    limit_support,
    separating_functional,
)
from stablepairs.lattice import dot

from helpers import box_search_degeneration, face_limit_support


class TestExtensionCriterion:
    def test_escaping_point(self):
        assert not extension_criterion(
            PointSet([(1, 0), (0, 1)]), PointSet([(1, 0)])
        )

    def test_segment_membership(self):
        assert extension_criterion(PointSet([(2, 0), (1, 0)]), PointSet([(2, 0)]))

    def test_vacuous_when_nothing_is_dropped(self):
        A = PointSet([(1, 0), (0, 1)])
        assert extension_criterion(A, A)

    def test_requires_subset(self):
        with pytest.raises(ValueError):
            extension_criterion(PointSet([(1, 0)]), PointSet([(0, 1)]))

    def test_failure_is_certified_by_a_functional(self):
        """When extension fails, a covector pushes the dropped support
        strictly below the kept-plus-origin one."""
        A = PointSet([(1, 0), (0, 1), (3, 3)])
        B = PointSet([(1, 0)])
        assert not extension_criterion(A, B)
        origin = (0, 0)
        anchor = PointSet(B.points + (origin,))
        rest = [p for p in A.points if p not in B]
        escapee = next(p for p in rest if separating_functional is not None)
        # some dropped point escapes; its separation certificate is the witness
        for p in rest:
            try:
                g = separating_functional(anchor, p)
            except ValueError:
                continue
            assert dot(g, p) < min(dot(g, q) for q in anchor.points)
            break
        else:
            pytest.fail("no separation certificate found for a failed extension")


class TestFindDegeneration:
    def test_example_argmin(self):
        A = PointSet([(1, 0), (0, 1), (1, 1)])
        u = find_degeneration(A, PointSet([(1, 0)]))
        assert u is not None
        assert limit_support(A, u) == PointSet([(1, 0)])

    def test_full_subset_rejected(self):
        A = PointSet([(1, 0), (0, 1)])
        with pytest.raises(ValueError):
            find_degeneration(A, A)

    def test_infeasible_midpoint(self):
        A = PointSet([(0, 0), (1, 0), (-1, 0)])
        assert find_degeneration(A, PointSet([(1, 0), (-1, 0)])) is None

    def test_direction_of_the_wrong_length_is_an_error(self):
        A = PointSet([(1, 0), (0, 1), (2, 2)])
        with pytest.raises(ValueError, match="dimension"):
            find_degeneration(A, PointSet([(1, 0)]), ContainmentContext([(1, 1, 1)]))

    def test_respects_constraints(self):
        ctx = ContainmentContext([(1, 1)])
        A = PointSet([(1, 0), (0, 1), (2, 2)])
        u = find_degeneration(A, PointSet([(1, 0)]), ctx)
        assert u is not None
        assert dot(u, (1, 1)) == 0
        assert limit_support(A, u) == PointSet([(1, 0)])


class TestLimitSupport:
    def test_argmin(self):
        A = PointSet([(1, 0), (0, 1), (1, 1)])
        assert limit_support(A, (0, 1)) == PointSet([(1, 0)])

    def test_zero_covector_keeps_everything(self):
        A = PointSet([(2, 1), (0, 1)])
        assert limit_support(A, (0, 0)) == A

    def test_tie(self):
        A = PointSet([(2, 0), (0, 2)])
        assert limit_support(A, (1, 1)) == A

    def test_covector_of_the_wrong_length_is_rejected(self):
        A = PointSet([(2, 0), (0, 2)])
        for u in [(1,), (1, 1, 0)]:
            with pytest.raises(ValueError, match=f"length mismatch: {len(u)} vs 2"):
                limit_support(A, u)


class TestRoundTripAndCompleteness:
    def test_round_trip_random(self):
        rng = random.Random(5150)
        successes = 0
        for _ in range(120):
            dim = rng.randint(1, 3)
            pts = {tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(rng.randint(2, 6))}
            A = PointSet(pts)
            if len(A) < 2:
                continue
            size = rng.randint(1, len(A) - 1)
            B = PointSet(rng.sample(list(A.points), size))
            u = find_degeneration(A, B)
            if u is not None:
                successes += 1
                assert limit_support(A, u) == B
        assert successes > 30

    def test_box_search_never_beats_the_lp(self):
        """Exhaustive small-box search succeeding while the LP reports
        infeasible would be a soundness bug; the reverse is fine."""
        rng = random.Random(6021)
        checked = 0
        for _ in range(25):
            dim = rng.randint(1, 3)
            pts = {tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(2, 5))}
            A = PointSet(pts)
            if len(A) < 2:
                continue
            for size in range(1, len(A)):
                for B_pts in itertools.combinations(A.points, size):
                    B = PointSet(B_pts)
                    u = find_degeneration(A, B)
                    boxed = box_search_degeneration(A.points, B.points, box=6)
                    if u is None:
                        assert boxed is None
                    else:
                        assert limit_support(A, u) == B
                    checked += 1
        assert checked > 40


def _contexts(rank):
    """No direction, all-ones, (2, 3, 4, 5, 7) cut to the rank, and both."""
    ones, cut = (1,) * rank, (2, 3, 4, 5, 7)[:rank]
    out = [ContainmentContext(), ContainmentContext([ones]), ContainmentContext([cut])]
    if rank >= 2:
        out.append(ContainmentContext([ones, cut]))
    return out


@pytest.mark.slow
def test_agrees_with_the_face_oracle_both_ways():
    """None exactly when the smallest face containing B meets A in more
    than B; otherwise u lands on B."""
    rng = random.Random(7411)
    found = missing = 0
    for rank in range(1, 6):
        for _ in range(12):
            pts = {tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(rng.randint(2, 6))}
            A = PointSet(pts)
            if len(A) < 2:
                continue
            subsets = [PointSet(rng.sample(A.points, rng.randint(1, len(A) - 1))) for _ in range(4)]
            for ctx in _contexts(rank):
                for B in subsets:
                    u = find_degeneration(A, B, ctx)
                    assert (u is not None) == face_limit_support(A, B, ctx), (A, B, ctx)
                    if u is None:
                        missing += 1
                    else:
                        found += 1
                        assert all(dot(u, d) == 0 for d in ctx.mod_directions)
                        assert limit_support(A, u) == B
    assert found > 100 and missing > 100
