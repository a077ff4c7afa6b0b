"""The four benchmark workloads: seeded inputs, one timed operation, exact checks.

Every workload builds a pool of inputs from its seed.  The pool is laid
out in rounds of a fixed composition (ranks, sizes, subcommands), shuffled
within each round by the seed, so any prefix of the pool has nearly the
same mix; the run cycles through it.  `setup` yields the pool one round at
a time, so that the harness can time each round's set-up.  `run` is the timed operation and
calls the program only through module attributes, so the tracer's
wrappers see every call.  `verify` runs outside the timed region and
raises `Mismatch` on any wrong output; it prefers arithmetic written here
over the program's own helpers.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
from fractions import Fraction

import stablepairs as sp
import stablepairs.cli as sp_cli


CLI_COMMANDS = (
    "check", "stable", "destabilize", "relinv", "limit",
    "extend", "energy", "futaki", "binary", "variety",
)


class Mismatch(Exception):
    """An operation's output failed its exact check."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


# -- exact arithmetic used by the checks ---------------------------------


def dot(u, a):
    return sum(x * y for x, y in zip(u, a))


def argmin_face(points, u) -> tuple:
    lo = min(dot(u, a) for a in points)
    return tuple(sorted(a for a in points if dot(u, a) == lo))


def rank_of(rows) -> int:
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def in_span(vectors, target) -> bool:
    if not any(target):
        return True
    return rank_of(list(vectors) + [target]) == rank_of(vectors) if vectors else False


def check_witness(u, v_pts, w_pts, cons, what: str) -> None:
    """A destabilizer is admissible and its weight gap is strict."""
    u = tuple(u)
    expect(any(u), f"{what}: zero witness")
    expect(all(dot(c, u) == 0 for c in cons), f"{what}: witness {u} not admissible")
    gap = min(dot(u, b) for b in w_pts) - min(dot(u, a) for a in v_pts)
    expect(gap > 0, f"{what}: witness {u} has weight gap {gap}")


def check_certificate(chi, d, exponents, w_pts, cons, what: str) -> None:
    """Exponents on w-points summing to d, with sum n_b b = d chi mod constraints."""
    expect(isinstance(d, int) and d >= 1, f"{what}: degree {d}")
    expect(all(isinstance(n, int) and n > 0 for n in exponents.values()), f"{what}: exponents")
    expect(set(exponents) <= set(w_pts), f"{what}: exponent off the w-support")
    expect(sum(exponents.values()) == d, f"{what}: exponents do not sum to {d}")
    residue = [
        sum(n * b[i] for b, n in exponents.items()) - d * chi[i] for i in range(len(chi))
    ]
    expect(in_span([list(c) for c in cons], residue), f"{what}: residue {residue}")


def futaki_number(u, v_pts, w_pts) -> int:
    return min(dot(u, b) for b in w_pts) - min(dot(u, a) for a in v_pts)


def log_norm_ratio(v_mags, w_mags) -> float:
    """Energy at the identity: log of |w|^2 over |v|^2."""
    return math.log(float(sum(w_mags))) - math.log(float(sum(v_mags)))


def cross_gauge(a, constrained: bool) -> int:
    """Least k >= 0 with a in k * cross-polytope (+ span of all-ones if constrained).

    The L1 norm; modulo the all-ones direction, the L1 distance to the
    line, attained at a median coordinate.
    """
    if not constrained:
        return sum(abs(x) for x in a)
    t = sorted(a)[len(a) // 2]
    return sum(abs(x - t) for x in a)


# -- seeded input generators ---------------------------------------------


def rand_point(rng, rank, lo, hi):
    return tuple(rng.randint(lo, hi) for _ in range(rank))


def rand_support(rng, rank, npts, lo, hi):
    return sorted({rand_point(rng, rank, lo, hi) for _ in range(npts)})


def rand_constraints(rng, rank):
    """The trace-zero constraint half the time, as in the acceptance suite."""
    return [(1,) * rank] if rank >= 2 and rng.random() < 0.5 else []


def acceptance_pair(rng, rank, nv=None, nw=None, constrained=None):
    """Acceptance-suite distribution: up to 8 points per support in a +-5 box.

    nv and nw are the numbers of points drawn (before duplicates merge);
    random in 1..8 unless given.  The trace-zero constraint (rank >= 2
    only) is drawn with probability 1/2 unless `constrained` says.
    """
    if constrained is None:
        cons = rand_constraints(rng, rank)
    else:
        cons = [(1,) * rank] if constrained and rank >= 2 else []
    v = rand_support(rng, rank, nv or rng.randint(1, 8), -5, 5)
    w = rand_support(rng, rank, nw or rng.randint(1, 8), -5, 5)
    return {"rank": rank, "cons": cons, "v": v, "w": w}


def chord_pair(rng, rank, nv, nw, vbox, chord, wbox, cons=None, weighted=False):
    """A pair semistable by construction: each v-point is the midpoint of
    two w-points (a +- e), and random w-points fill up to nw."""
    if (2 * wbox + 1) ** rank < nw:
        raise ValueError(f"a +-{wbox} box in rank {rank} has fewer than {nw} points")
    v = set()
    while len(v) < nv:
        v.add(rand_point(rng, rank, -vbox, vbox))
    w = set()
    for a in sorted(v):
        e = (0,) * rank
        while not any(e):
            e = rand_point(rng, rank, -chord, chord)
        w.add(tuple(x + y for x, y in zip(a, e)))
        w.add(tuple(x - y for x, y in zip(a, e)))
    while len(w) < nw:
        w.add(rand_point(rng, rank, -wbox, wbox))
    data = {
        "rank": rank,
        "cons": rand_constraints(rng, rank) if cons is None else cons,
        "v": sorted(v),
        "w": sorted(w),
    }
    if weighted:
        data["vm"] = [Fraction(rng.randint(1, 16), 4) for _ in data["v"]]
        data["wm"] = [Fraction(rng.randint(1, 16), 4) for _ in data["w"]]
    return data


def midpoint_pair(rng, rank, npts, half_box):
    """Free pair with npts-point supports in a +-2*half_box box, semistable by
    construction: w has even coordinates and v consists of midpoints of
    w-chords."""
    w = set()
    while len(w) < npts:
        w.add(tuple(2 * c for c in rand_point(rng, rank, -half_box, half_box)))
    w = sorted(w)
    chords = list(itertools.combinations(w, 2))
    rng.shuffle(chords)
    v = set()
    for a, b in chords:
        v.add(tuple((x + y) // 2 for x, y in zip(a, b)))
        if len(v) == npts:
            break
    return {"rank": rank, "cons": [], "v": sorted(v), "w": w}


def build_pair(data) -> sp.Pair:
    rank = data["rank"]
    problem = sp.StabilityProblem(rank, data["cons"], sp.cross_polytope(rank))
    v = sp.WeightedVector(data["v"], data.get("vm"))
    w = sp.WeightedVector(data["w"], data.get("wm"))
    return sp.Pair(v, w, problem)


def admissible_covectors(rng, data, count, max_pairing):
    """Up to `count` distinct admissible covectors in {-1,0,1}^rank whose
    pairings with every support point stay within max_pairing."""
    pts = data["v"] + data["w"]
    found = [
        u for u in itertools.product((-1, 0, 1), repeat=data["rank"])
        if any(u)
        and all(dot(c, u) == 0 for c in data["cons"])
        and all(abs(dot(u, a)) <= max_pairing for a in pts)
    ]
    rng.shuffle(found)
    return found[:count]


def rounds(rng, n_rounds, round_spec):
    """Yield n_rounds copies of round_spec, each but the first shuffled by
    the seed.

    The first round keeps the spec order, so the warm-up operation (the
    first item) is always of the same kind.
    """
    for r in range(n_rounds):
        spec = list(round_spec)
        if r:
            rng.shuffle(spec)
        yield spec


# -- workloads -------------------------------------------------------------


class Verdicts:
    """t_semistable, then limit supports (unstable) or a relative invariant."""

    name = "verdicts"
    ROUNDS = 32
    # Every (rank, v-points drawn) stratum once; within a round each rank
    # also meets every w-size once, paired with the v-sizes by the seed.
    # At ranks 2-4 the trace-zero constraint goes to the odd v-sizes in
    # even rounds and to the even ones in odd rounds: half of each stratum.
    ROUND = tuple((rank, nv) for rank in (1, 2, 3, 4) for nv in range(1, 9))

    def setup(self, rng, workdir):
        for r, kinds in enumerate(rounds(rng, self.ROUNDS, self.ROUND)):
            w_sizes = {rank: rng.sample(range(1, 9), 8) for rank in (1, 2, 3, 4)}
            items = []
            for rank, nv in kinds:
                data = acceptance_pair(rng, rank, nv, w_sizes[rank][nv - 1],
                                       constrained=(nv + r) % 2 == 1)
                items.append((build_pair(data), rng.choice(data["v"])))
            yield items

    def run(self, item):
        p, chi = item
        verdict = sp.t_semistable(p)
        if verdict.semistable:
            return verdict, sp.relative_invariant(p, chi)
        u = verdict.witness
        return verdict, (sp.limit_support(p.v.support, u), sp.limit_support(p.w.support, u))

    def verify(self, item, result):
        p, chi = item
        verdict, extra = result
        v_pts, w_pts, cons = p.v.support.points, p.w.support.points, p.problem.constraints
        if verdict.semistable:
            d, exponents = extra
            check_certificate(chi, d, exponents, w_pts, cons, "relative invariant")
            expect(sp.check_relative_invariant(p, chi, d, exponents),
                   "check_relative_invariant rejected the certificate")
            return
        u = verdict.witness
        check_witness(u, v_pts, w_pts, cons, "t_semistable")
        expect(extra[0].points == argmin_face(v_pts, u), "limit support of v")
        expect(extra[1].points == argmin_face(w_pts, u), "limit support of w")


class Exponent:
    """degree_of, then stable(p, M_MAX) on pairs semistable at the base."""

    name = "exponent"
    M_MAX = 8
    ROUNDS = 5
    # Every (rank, v-points, constraint) stratum once, plus two rank-4 free
    # pairs with 8-point supports in a +-6 box: the known slow class for
    # stable and degree_of.
    ROUND = tuple(
        (rank, nv, constrained)
        for rank in (2, 3, 4) for nv in (1, 2, 3) for constrained in (False, True)
    ) + ("slow",) * 2

    def setup(self, rng, workdir):
        for kinds in rounds(rng, self.ROUNDS, self.ROUND):
            items = []
            for kind in kinds:
                if kind == "slow":
                    data = midpoint_pair(rng, 4, 8, 3)
                else:
                    rank, nv, constrained = kind
                    cons = [(1,) * rank] if constrained else []
                    nw = rng.randint(max(8, 2 * nv), 12)
                    data = chord_pair(rng, rank, nv, nw, 2, 3, 5, cons=cons)
                items.append((build_pair(data), data))
            yield items

    def run(self, item):
        p, _ = item
        q = sp.degree_of(p.v, p.problem)
        return q, sp.stable(p, self.M_MAX)

    def verify(self, item, result):
        p, data = item
        q, verdict = result
        constrained = bool(data["cons"])
        expect(q == max(1, max(cross_gauge(a, constrained) for a in data["v"])),
               f"degree_of gave {q}")
        cons = p.problem.constraints

        def perturbed(m):
            pp = sp.perturb(p, m, q)
            return pp, sp.t_semistable(pp)

        def unstable_at(m):
            pp, ver = perturbed(m)
            expect(not ver.semistable, f"perturbation at {m} should be unstable")
            check_witness(ver.witness, pp.v.support.points, pp.w.support.points, cons,
                          f"perturbation at {m}")

        if verdict.status == sp.StableVerdict.STABLE:
            e = verdict.exponent
            expect(1 <= e <= self.M_MAX, f"exponent {e}")
            expect(perturbed(e)[1].semistable, f"perturbation at exponent {e} unstable")
            if e > 1:
                unstable_at(e - 1)
        elif verdict.status == sp.StableVerdict.NOT_STABLE_UP_TO:
            expect(verdict.m_max == self.M_MAX, "m_max echoed wrongly")
            unstable_at(self.M_MAX)
        else:
            raise Mismatch("pair semistable by construction reported unstable_base")


class Energy:
    """asymptotic_slope along a few covectors, then infimum_estimate."""

    name = "energy"
    ROUNDS = 8
    SLOPES = 3
    # Every (rank, w-points, constraint) stratum once, plus one rank-4 free
    # pair with 16 w-points: the known slow infimum_estimate case
    # (certificate_normals walks 16-choose-4 subsets).
    ROUND = tuple(
        (rank, nw, constrained)
        for rank, sizes in ((2, (8, 12, 16)), (3, (8, 12, 16)), (4, (8, 10, 12)))
        for nw in sizes for constrained in (False, True)
    ) + ((4, 16, False),)

    def setup(self, rng, workdir):
        for kinds in rounds(rng, self.ROUNDS, self.ROUND):
            items = []
            for rank, nw, constrained in kinds:
                cons = [(1,) * rank] if constrained else []
                data = chord_pair(rng, rank, rng.randint(1, 4), nw, 2, 2, 3, cons=cons,
                                  weighted=True)
                us = admissible_covectors(rng, data, self.SLOPES, 10)
                items.append((build_pair(data), data, us))
            yield items

    def run(self, item):
        p, _, us = item
        slopes = [sp.asymptotic_slope(p, u) for u in us]
        return slopes, sp.infimum_estimate(p)

    def verify(self, item, result):
        _, data, us = item
        slopes, est = result
        expect(len(slopes) == len(us) > 0, "no slopes")
        for u, s in zip(us, slopes):
            f = futaki_number(u, data["v"], data["w"])
            expect(abs(s - f) <= 1e-6, f"slope {s} along {u} vs Futaki number {f}")
        e0 = log_norm_ratio(data["vm"], data["wm"])
        expect(math.isfinite(est) and est <= e0 + 1e-9,
               f"infimum estimate {est} for a semistable pair (energy at identity {e0})")


ROOT_POOL = (
    (0, 1), (1, 0), (1, 1), (-1, 1), (2, 1), (1, 2), (-1, 2), (-2, 1),
    (3, 1), (1, 3), (3, 2), (-3, 2), (5, 2), (2, 3),
)


def binary_form_text(rng, degree) -> str:
    roots: dict = {}
    left = degree
    while left > 0:
        point = rng.choice(ROOT_POOL)
        mult = rng.randint(1, left)
        roots[point] = roots.get(point, 0) + mult
        left -= mult
    if not roots:
        return "1"
    return " ".join(f"[{p}:{q}]^{m}" for (p, q), m in sorted(roots.items()))


def problem_json(data) -> dict:
    out = {
        "rank": data["rank"],
        "constraints": [list(c) for c in data["cons"]],
        "Q": [list(p) for p in sp.cross_polytope(data["rank"]).points],
        "v": {"support": [list(p) for p in data["v"]]},
        "w": {"support": [list(p) for p in data["w"]]},
    }
    if "vm" in data:
        out["v"]["magnitudes"] = [str(m) for m in data["vm"]]
        out["w"]["magnitudes"] = [str(m) for m in data["wm"]]
    return out


class CliMix:
    """cli.main over problem files written during set-up, all ten subcommands."""

    name = "cli_mix"
    ROUNDS = 24
    # Each subcommand four times, once per stratum (rank 1-4 for problem
    # files, a degree band for `binary`, a datum kind for `variety`).
    ROUND = tuple((cmd, stratum) for cmd in CLI_COMMANDS for stratum in range(4))
    STABLE_MAX_M = 4

    def setup(self, rng, workdir):
        self._futaki_requests = 0
        idx = 0
        for kinds in rounds(rng, self.ROUNDS, self.ROUND):
            items = []
            for cmd, stratum in kinds:
                data, argv = getattr(self, "_gen_" + cmd)(rng, stratum)
                if data is not None:
                    path = os.path.join(workdir, f"p{idx:04d}.json")
                    with open(path, "w") as fh:
                        json.dump(problem_json(data), fh)
                    argv = [cmd, path] + argv
                idx += 1
                # Built here, as in the other workloads, so that set-up
                # includes building each problem; the checks compare
                # against it.
                pair = build_pair(data) if data is not None else None
                items.append({"cmd": cmd, "argv": argv, "data": data, "pair": pair})
            yield items

    # Generators return (problem data or None, argv after the file).

    def _gen_check(self, rng, stratum):
        return acceptance_pair(rng, stratum + 1), []

    _gen_destabilize = _gen_check

    def _gen_futaki(self, rng, stratum):
        """Every other request (the first included) a free pair whose supports
        sit in parallel hyperplanes of the last coordinate, so the
        stabilizer subtorus is nontrivial."""
        data = acceptance_pair(rng, stratum + 1)
        self._futaki_requests += 1
        if self._futaki_requests % 2:
            data["cons"] = []
            for side in ("v", "w"):
                c = rng.randint(-5, 5)
                data[side] = sorted({p[:-1] + (c,) for p in data[side]})
        return data, []

    def _gen_stable(self, rng, stratum):
        rank = 2 + stratum % 2
        nv = rng.randint(1, 3)
        return chord_pair(rng, rank, nv, 2 * nv + 2, 2, 2, 3), ["--max-m", str(self.STABLE_MAX_M)]

    def _gen_relinv(self, rng, stratum):
        nv = rng.randint(1, 3)
        data = chord_pair(rng, stratum + 1, nv, 2 * nv + 2, 3, 2, 5)
        chi = rng.choice(data["v"])
        return data, ["--chi=" + ",".join(map(str, chi))]

    def _gen_limit(self, rng, stratum):
        data = self._two_point_pair(rng, stratum + 1)
        v = data["v"]
        if rng.random() < 0.5:
            us = admissible_covectors(rng, data, 1, 10**9)
            target = argmin_face(v, us[0])
            if len(target) == len(v):
                target = (v[0],)
        else:
            target = tuple(rng.sample(v, rng.randint(1, len(v) - 1)))
        return data, ["--target", json.dumps([list(p) for p in target])]

    def _gen_extend(self, rng, stratum):
        data = self._two_point_pair(rng, stratum + 1)
        target = rng.sample(data["v"], rng.randint(1, len(data["v"])))
        return data, ["--target", json.dumps([list(p) for p in target])]

    def _gen_energy(self, rng, stratum):
        """Strata 2 and 3 also ask for the infimum estimate, so that the run
        reaches infimum_estimate and certificate_normals."""
        nv = rng.randint(1, 3)
        data = chord_pair(rng, 1 + stratum % 3, nv, 2 * nv + 2, 2, 2, 4, weighted=True)
        u = admissible_covectors(rng, data, 1, 10)[0]
        argv = ["--ops=" + ",".join(map(str, u)), "--slope"]
        return data, argv + ["--infimum"] if stratum >= 2 else argv

    def _gen_binary(self, rng, stratum):
        f = binary_form_text(rng, rng.randint(2 * stratum, 2 * stratum + 2))
        g = binary_form_text(rng, rng.randint(0, 8))
        return None, ["binary", "--f", f, "--g", g, "--oracle"]

    def _gen_variety(self, rng, stratum):
        if stratum % 2:
            d = rng.randint(2, 12)
            genus = (d - 1) * (d - 2) // 2
            mu = sp.plane_curve_mu(d, genus)
            args = ["--n", "1", "--d", str(d), "--mu", str(mu), "--N", "2", "--genus", str(genus)]
        else:
            n = rng.randint(1, 3)
            args = ["--n", str(n), "--d", str(rng.randint(2, 6)), "--mu", "0",
                    "--N", str(n + rng.randint(1, 3))]
        return None, ["variety"] + args

    def _two_point_pair(self, rng, rank):
        while True:
            data = acceptance_pair(rng, rank)
            if len(data["v"]) >= 2:
                return data

    def run(self, item):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = sp_cli.main(item["argv"])
        return code, out.getvalue()

    def verify(self, item, result):
        code, text = result
        expect(code in (0, 1, 2), f"exit code {code}")
        payload = json.loads(text)
        getattr(self, "_check_" + item["cmd"])(item, code, payload)

    def _witness(self, item, payload):
        d = item["data"]
        check_witness(payload["witness"], d["v"], d["w"], d["cons"], item["cmd"])

    def _check_check(self, item, code, payload):
        lib = sp.t_semistable(item["pair"])
        expect(code == (0 if lib.semistable else 1), "check exit code vs t_semistable")
        if code == 1:
            self._witness(item, payload)

    def _check_destabilize(self, item, code, payload):
        self._check_check(item, code, payload)
        if code == 1:
            u, d = payload["witness"], item["data"]
            for side in ("v", "w"):
                got = tuple(tuple(p) for p in payload["limit_support_" + side])
                expect(got == argmin_face(d[side], u), f"limit support of {side}")

    def _check_stable(self, item, code, payload):
        lib = sp.stable(item["pair"], self.STABLE_MAX_M)
        expect(payload["status"] == ("unstable" if lib.status == "unstable_base" else lib.status),
               "stable status vs library")
        expect(code == (0 if lib.is_stable else 1), "stable exit code")
        expect(payload.get("exponent") == lib.exponent, "stable exponent vs library")
        expect(payload["status"] != "unstable", "pair semistable by construction")

    def _check_relinv(self, item, code, payload):
        d = item["data"]
        expect(code == 0, "relinv on a pair semistable by construction")
        chi = tuple(payload["chi"])
        exponents = {tuple(b): n for b, n in payload["exponents"]}
        check_certificate(chi, payload["degree"], exponents, d["w"], d["cons"], "relinv")
        expect(sp.check_relative_invariant(item["pair"], chi, payload["degree"], exponents),
               "check_relative_invariant rejected the CLI certificate")

    def _check_limit(self, item, code, payload):
        d = item["data"]
        target = tuple(sorted(tuple(p) for p in json.loads(item["argv"][-1])))
        lib = sp.find_degeneration(item["pair"].v.support, target, item["pair"].problem.ctx)
        expect(code == (0 if lib is not None else 1), "limit exit code vs library")
        if code == 0:
            u = tuple(payload["u"])
            expect(all(dot(c, u) == 0 for c in d["cons"]), "limit covector not admissible")
            expect(argmin_face(d["v"], u) == target, "limit_support(A, u) != B")

    def _check_extend(self, item, code, payload):
        target = [tuple(p) for p in json.loads(item["argv"][-1])]
        lib = sp.extension_criterion(item["pair"].v.support, target, item["pair"].problem.ctx)
        expect(payload["extends"] is lib and code == (0 if lib else 1),
               "extend vs extension_criterion")

    def _check_energy(self, item, code, payload):
        d = item["data"]
        u = tuple(payload["u"])
        f = futaki_number(u, d["v"], d["w"])
        expect(code == 0 and payload["futaki_gen"] == f, "energy futaki_gen")
        expect(abs(payload["slope"] - f) <= 1e-6, f"slope {payload['slope']} vs {f}")
        e0 = log_norm_ratio(d["vm"], d["wm"])
        expect(abs(payload["energy_at_identity"] - e0) <= 1e-9, "energy at identity")
        if "--infimum" in item["argv"]:
            est = payload["infimum_estimate"]
            expect(isinstance(est, float) and est <= e0 + 1e-9,
                   f"infimum estimate {est} for a semistable pair")

    def _check_futaki(self, item, code, payload):
        d = item["data"]
        expect(code == 0, "futaki exit code")
        diffs = [
            [x - y for x, y in zip(q, pts[0])] for pts in (d["v"], d["w"]) for q in pts[1:]
        ]
        rows = diffs + [list(c) for c in d["cons"]]
        basis = [tuple(b) for b in payload["stabilizer_basis"]]
        expect(payload["stabilizer_rank"] == len(basis) == d["rank"] - rank_of(rows),
               "stabilizer rank")
        expect(rank_of(basis) == len(basis) if basis else True, "stabilizer basis dependent")
        for u, value in zip(basis, payload["classical_on_basis"]):
            expect(all(dot(r, u) == 0 for r in rows), f"{u} not in the stabilizer")
            expect(value == dot(u, d["w"][0]) - dot(u, d["v"][0]), "classical Futaki number")
        offset = [b - a for a, b in zip(d["v"][0], d["w"][0])]
        equal = in_span(rows, offset)
        expect(payload["affine_span"] == ("equal" if equal else "disjoint"), "affine span test")

    def _check_binary(self, item, code, payload):
        argv = item["argv"]
        f = sp.BinaryForm.parse(argv[argv.index("--f") + 1])
        g = sp.BinaryForm.parse(argv[argv.index("--g") + 1])
        by_roots = sp.semistable_bf(f, g).semistable
        expect(by_roots == sp.torus_oracle_bf(f, g).semistable, "root criterion vs torus oracle")
        expect(code == (0 if by_roots else 1), "binary exit code")

    def _check_variety(self, item, code, payload):
        argv = item["argv"]
        n, d = int(argv[argv.index("--n") + 1]), int(argv[argv.index("--d") + 1])
        mu = Fraction(argv[argv.index("--mu") + 1])
        big_n = int(argv[argv.index("--N") + 1])
        deg_r = d * (n + 1)
        deg_delta = n * (n + 1) * d - d * mu
        r = deg_r * deg_delta
        expect(code == 0, "variety exit code")
        expect(payload["deg_resultant"] == deg_r and payload["deg_hyperdiscriminant"] == deg_delta
               and payload["common_degree"] == r, "variety degrees")
        expect(payload["lambda_partition"] == [r // (n + 1)] * (n + 1) + [0] * (big_n - n)
               and payload["mu_partition"] == [r // n] * n + [0] * (big_n + 1 - n),
               "variety partitions")


WORKLOADS = {w.name: w for w in (Verdicts(), Exponent(), Energy(), CliMix())}
