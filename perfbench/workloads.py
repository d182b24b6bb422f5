"""The four closed-loop workloads of the germlie benchmark.

A workload builds its context once (``setup``), warms the package's lazy
tables with one untimed call (``warm``), draws a pool of inputs from the seed
before any timing starts (``make_inputs``) and then runs rounds over that pool.
A round hands every op to the harness's ``timed(items, fn)`` callback, which
times ``fn`` and turns tracing on or off around it; all checks and oracles in
a round run between ops, outside the timed region and outside tracing.

A failed check raises :class:`CheckFailed`, which marks the op just timed as
failed and ends the round.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import scipy.linalg

from germlie import complexify, evolution, germgroup, germspace
from germlie.matrixlie import MatrixLieBackend
from germlie.series import matrix_space

# ``sample_sup <= norm_upper`` is exact in real arithmetic; rounding of the two
# sides (different summation orders) is outside every certificate.
INVARIANT_RTOL = 1e-12


class CheckFailed(Exception):
    """An op returned a value that misses its workload's check."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_invariant(elements) -> None:
    """The package's core invariant ``sample_sup <= norm_upper`` on returned germs."""
    for el in elements:
        el = getattr(el, "element", el)  # GermGroupElement wraps a BHolElement
        sampled, upper = el.sample_sup(), el.norm_upper
        check(sampled <= upper * (1.0 + INVARIANT_RTOL),
              f"sample_sup {sampled!r} exceeds norm_upper {upper!r}")


def matrix_group() -> germgroup.GermLieGroup:
    """gl(2)-valued germs on two anchors, degree 12, BCH order 8 (the acceptance setup)."""
    space = germspace.GermSpace(anchors=(0.0, 1.5 + 0.5j), base_radius=1.0, ratio=0.1,
                                levels=6, space=matrix_space(2), degree_bound=12)
    return germgroup.GermLieGroup(space, MatrixLieBackend(2, 8))


def scalar_space() -> germspace.GermSpace:
    return germspace.GermSpace(anchors=(0.0, 0.4 + 0.1j), base_radius=1.0, ratio=0.1,
                               levels=6, degree_bound=12)


def max_pointwise(backend, a, b) -> float:
    return float(np.max(backend.norm(a - b)))


def input_digest(obj) -> str:
    """SHA-256 over every number in a pool of inputs (order-sensitive)."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, dict):
            for k in sorted(x):
                h.update(str(k).encode())
                feed(x[k])
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for v in x:
                feed(v)
            h.update(b"]")
        elif isinstance(x, germspace.BHolElement):
            h.update(str(x.level).encode())
            for s in x.reps:
                h.update(np.ascontiguousarray(s.coeffs).tobytes())
                h.update(repr((s.radius, s.tail_bound)).encode())
        elif isinstance(x, germgroup.GermGroupElement):
            feed(x.element)
        elif isinstance(x, evolution.LieCurve):
            feed(x.breakpoints)
            feed(x.segments)
        elif isinstance(x, np.ndarray):
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, (int, float, complex)):
            h.update(repr(x).encode())
        else:
            raise TypeError(f"cannot digest {type(x).__name__}")

    feed(obj)
    return h.hexdigest()


class Workload:
    """Interface of a workload; ``name`` and ``tag`` are unique."""

    name = ""
    tag = 0          # mixed into the seed so workloads draw independent streams
    pool_size = 0    # distinct inputs per seed; rounds cycle through them

    def rng(self, seed: int) -> np.random.Generator:
        return np.random.default_rng([int(seed), self.tag])

    def setup(self):
        raise NotImplementedError

    def warm(self, ctx) -> None:
        raise NotImplementedError

    def make_inputs(self, ctx, seed: int) -> list:
        raise NotImplementedError

    def run_round(self, ctx, item, timed) -> None:
        raise NotImplementedError


class _LieContext:
    def __init__(self):
        self.group = matrix_group()
        self.backend = self.group.backend
        self.pts = self.group.space.sample_points(1, 20, interior=0.4)


# ---------------------------------------------------------------------------
# bch-sweep: batched germ BCH over associativity triples
# ---------------------------------------------------------------------------

class BchSweep(Workload):
    """One op is one ``bch_pairs`` call on 34 pairs (68 stacked series).

    Above 64 stacked series ``SeriesStack.mul`` takes its degreewise path,
    the one criterion 2 and ``--suite lie-local`` use.  A round is two ops on
    17 triples: first x.y and y.z, then (xy).z and x.(yz).
    """

    name = "bch-sweep"
    tag = 1
    triples = 17
    pool_size = 16

    def setup(self):
        return _LieContext()

    def warm(self, ctx) -> None:
        rng = np.random.default_rng(0)
        x, y = (germgroup.random_algebra_element(ctx.group, rng, 0.03) for _ in range(2))
        ctx.group.bch_pairs([(x, y)])

    def make_inputs(self, ctx, seed: int) -> list:
        rng = self.rng(seed)
        group = ctx.group
        return [tuple(tuple(germgroup.random_algebra_element(group, rng,
                                                            0.04 * rng.uniform(0.3, 1.0))
                            for _ in range(3))
                      for _ in range(self.triples))
                for _ in range(self.pool_size)]

    def _check_pointwise(self, ctx, pairs, outs) -> None:
        """Each germ product equals the matrix BCH of the values, point by point."""
        b = ctx.backend
        xs = np.stack([x.eval(ctx.pts) for x, _ in pairs])
        ys = np.stack([y.eval(ctx.pts) for _, y in pairs])
        zs = np.stack([z.eval(ctx.pts) for z in outs])
        err = max_pointwise(b, zs, b.bch(xs, ys))
        check(err <= 1e-9, f"germ BCH misses the pointwise matrix BCH by {err:.3g} > 1e-9")
        check_invariant(outs)

    def run_round(self, ctx, item, timed) -> None:
        xs, ys, zs = zip(*item)
        n = len(item)
        pairs_a = list(zip(xs, ys)) + list(zip(ys, zs))
        out_a = timed(len(pairs_a), lambda: ctx.group.bch_pairs(pairs_a))
        self._check_pointwise(ctx, pairs_a, out_a)
        xy, yz = out_a[:n], out_a[n:]
        pairs_b = list(zip(xy, zs)) + list(zip(xs, yz))
        out_b = timed(len(pairs_b), lambda: ctx.group.bch_pairs(pairs_b))
        self._check_pointwise(ctx, pairs_b, out_b)
        lhs, rhs = out_b[:n], out_b[n:]
        worst = max(max_pointwise(ctx.backend, le.eval(ctx.pts), re_.eval(ctx.pts))
                    for le, re_ in zip(lhs, rhs))
        check(worst <= 1e-8, f"associativity residual {worst:.3g} > 1e-8")


# ---------------------------------------------------------------------------
# group-charts: single-series chart arithmetic on group germs
# ---------------------------------------------------------------------------

class GroupCharts(Workload):
    """One op is one chart trial: exp/log round trip, power, homomorphism, inv, adjoint."""

    name = "group-charts"
    tag = 2
    pool_size = 64

    def setup(self):
        return _LieContext()

    def warm(self, ctx) -> None:
        rng = np.random.default_rng(0)
        x, y = (germgroup.random_algebra_element(ctx.group, rng, 0.03) for _ in range(2))
        ctx.group.log_germ(ctx.group.exp_germ(ctx.group.germ_bch(x, y)))

    def make_inputs(self, ctx, seed: int) -> list:
        rng = self.rng(seed)
        group = ctx.group
        items = []
        for _ in range(self.pool_size):
            items.append({
                "eta_rt": germgroup.random_algebra_element(
                    group, rng, 0.9 * group.inj_radius * rng.uniform(0.1, 1.0)),
                "x": germgroup.random_algebra_element(group, rng, 0.05 * rng.uniform(0.2, 1.0)),
                "y": germgroup.random_algebra_element(group, rng, 0.05 * rng.uniform(0.2, 1.0)),
                "n": int(rng.integers(2, 5)),
                "gamma": germgroup.random_group_element(group, rng,
                                                        0.25 * rng.uniform(0.2, 1.0)),
                "eta": germgroup.random_algebra_element(group, rng,
                                                        0.15 * rng.uniform(0.2, 1.0)),
            })
        return items

    def run_round(self, ctx, item, timed) -> None:
        group = ctx.group
        x, y, n = item["x"], item["y"], item["n"]
        gamma, eta = item["gamma"], item["eta"]

        def op():
            g_rt = group.exp_germ(item["eta_rt"])
            back = group.log_germ(g_rt)
            gx = group.exp_germ(x)
            pw = group.power(gx, n)
            direct = group.exp_germ(x.scale(float(n)))
            hom_l = group.exp_germ(group.germ_bch(x, y))
            hom_r = group.mul(gx, group.exp_germ(y))
            ginv = group.inv(gamma)
            ad_eta, bound = group.adjoint(gamma, eta)
            conj_l = group.mul(group.mul(gamma, group.exp_germ(eta)), ginv)
            conj_r = group.exp_germ(ad_eta)
            return {"back": back, "gx": gx, "pw": pw, "direct": direct,
                    "hom_l": hom_l, "hom_r": hom_r, "ginv": ginv, "ad_eta": ad_eta,
                    "bound": bound, "conj_l": conj_l, "conj_r": conj_r}

        r = timed(1, op)
        b, pts = ctx.backend, ctx.pts
        rt = germspace.germ_distance(r["back"], item["eta_rt"])
        check(rt <= 1e-9, f"exp/log round trip off by {rt:.3g} > 1e-9")
        oracle = scipy.linalg.expm(x.eval(pts))
        err = max_pointwise(b, r["gx"].eval(pts), oracle)
        check(err <= 1e-9, f"exp_germ misses scipy expm by {err:.3g} > 1e-9")
        err = max_pointwise(b, r["pw"].eval(pts), r["direct"].eval(pts))
        check(err <= 1e-9, f"power law off by {err:.3g} > 1e-9")
        err = max_pointwise(b, r["hom_l"].eval(pts), r["hom_r"].eval(pts))
        check(err <= 1e-9, f"homomorphism law off by {err:.3g} > 1e-9")
        eye = np.broadcast_to(np.eye(2), (len(pts), 2, 2))
        err = max_pointwise(b, gamma.eval(pts) @ r["ginv"].eval(pts), eye)
        check(err <= 1e-9, f"inverse off by {err:.3g} > 1e-9")
        err = max_pointwise(b, r["conj_l"].eval(pts), r["conj_r"].eval(pts))
        check(err <= 1e-9, f"conjugation identity off by {err:.3g} > 1e-9")
        ad_norm, bound = r["ad_eta"].norm_upper, r["bound"]
        check(ad_norm <= bound * eta.norm_upper + 1e-12,
              f"adjoint bound violated: {ad_norm:.6g} > {bound:.6g} * {eta.norm_upper:.6g}")
        check_invariant([r[k] for k in ("back", "gx", "pw", "direct", "hom_l", "hom_r",
                                        "ginv", "ad_eta", "conj_l", "conj_r")])


# ---------------------------------------------------------------------------
# evolution: product integral of random splines plus smoothness evidence
# ---------------------------------------------------------------------------

def random_spline_curve(group, rng, n_segments: int = 2, amp: float = 0.15):
    """Continuous random cubic spline within the evolution budget."""
    bp = tuple(np.linspace(0.0, 1.0, n_segments + 1))
    segments = []
    prev_end = None
    for _ in range(n_segments):
        c0 = prev_end if prev_end is not None else \
            germgroup.random_algebra_element(group, rng, amp * rng.uniform(0.3, 1.0))
        coeffs = [c0] + [germgroup.random_algebra_element(group, rng,
                                                          amp * rng.uniform(0.1, 0.5) / 3)
                         for _ in range(3)]
        prev_end = coeffs[0]
        for c in coeffs[1:]:
            prev_end = prev_end + c
        segments.append(tuple(coeffs))
    return evolution.LieCurve(group, bp, tuple(segments))


def rk4_pointwise(curve, pts, steps: int) -> np.ndarray:
    """Classical RK4 on Y' = Y A(t) at every point, batched over the points.

    The segment coefficients are evaluated at the points once; A(t) is then
    the local cubic in s, the same value ``curve.value(t).eval(pts)`` gives.
    """
    m = curve.group.space.space.dim
    bp = np.asarray(curve.breakpoints)
    coeffs = np.zeros((len(curve.segments), 4, len(pts), m, m), dtype=complex)
    for i, seg in enumerate(curve.segments):
        for j, c in enumerate(seg):
            coeffs[i, j] = c.eval(pts)

    def a_of(t):
        i = min(max(int(np.searchsorted(bp, t, side="right")) - 1, 0), len(curve.segments) - 1)
        s = min(max((t - bp[i]) / (bp[i + 1] - bp[i]), 0.0), 1.0)
        return coeffs[i, 0] + s * (coeffs[i, 1] + s * (coeffs[i, 2] + s * coeffs[i, 3]))

    y = np.tile(np.eye(m, dtype=complex), (len(pts), 1, 1))
    h = 1.0 / steps
    for i in range(steps):
        t = i * h
        a1, a2, a3 = a_of(t), a_of(t + 0.5 * h), a_of(t + h)
        k1 = y @ a1
        k2 = (y + 0.5 * h * k1) @ a2
        k3 = (y + 0.5 * h * k2) @ a2
        k4 = (y + h * k3) @ a3
        y = y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


class Evolution(Workload):
    """One op is ``evol`` at 64 steps with step doubling, then ``smoothness_report``."""

    name = "evolution"
    tag = 3
    pool_size = 32
    steps = 64

    def setup(self):
        return _LieContext()

    def warm(self, ctx) -> None:
        rng = np.random.default_rng(0)
        xi = germgroup.random_algebra_element(ctx.group, rng, 0.1)
        evolution.evol(evolution.LieCurve.constant(ctx.group, xi), 4,
                       error_estimate=False, keep_trajectory=False)

    def make_inputs(self, ctx, seed: int) -> list:
        rng = self.rng(seed)
        ctx.oracles = {}  # endpoint oracle per pooled curve, filled by the first check
        return [{"curve": random_spline_curve(ctx.group, rng),
                 "direction": random_spline_curve(ctx.group, rng)}
                for _ in range(self.pool_size)]

    def run_round(self, ctx, item, timed) -> None:
        group, curve = ctx.group, item["curve"]

        def op():
            res = evolution.evol(curve, self.steps)
            rep = evolution.smoothness_report(group, curve, item["direction"], steps=32)
            return res, rep

        res, rep = timed(1, op)
        oracle = ctx.oracles.get(id(curve))
        if oracle is None:
            oracle = ctx.oracles[id(curve)] = rk4_pointwise(curve, ctx.pts, 10 * self.steps)
        err = float(np.max(np.abs(res.endpoint.eval(ctx.pts) - oracle)))
        check(err <= 1e-6, f"evol endpoint misses the RK4 oracle by {err:.3g} > 1e-6")
        check(res.error_estimate is not None and math.isfinite(res.error_estimate),
              "evol returned no step-doubling estimate")
        orders = rep.extras.get("orders", [])
        check(rep.status == "pass" and orders and all(1.9 <= o <= 2.1 for o in orders),
              f"smoothness report {rep.status} with orders {orders}")
        check_invariant([res.endpoint])


# ---------------------------------------------------------------------------
# germ-space: scalar coefficients, no matrix kernel
# ---------------------------------------------------------------------------

REGULARITY_GRID = tuple((n, ell, eps) for n in (1, 2) for ell in (3, 4) for eps in (0.5, 0.1))


class GermSpaceChecks(Workload):
    """One op is one scalar case: compact regularity, factorize, family
    convergence, and a circle-atlas extension with its cocycle certificate."""

    name = "germ-space"
    tag = 4
    pool_size = 64
    regularity_trials = 30

    def setup(self):
        return {"space": scalar_space(),
                "atlases": {n: complexify.circle_atlas(n) for n in (3, 4)}}

    def warm(self, ctx) -> None:
        germspace.factorize(ctx["space"], np.exp, 1)

    def make_inputs(self, ctx, seed: int) -> list:
        rng = self.rng(seed)
        space = ctx["space"]
        items = []
        for _ in range(self.pool_size):
            deg = int(rng.integers(0, 5))
            items.append({
                "case": REGULARITY_GRID[int(rng.integers(len(REGULARITY_GRID)))],
                "regularity_seed": int(rng.integers(2 ** 32)),
                "f_exp": (complex(rng.standard_normal(), rng.standard_normal()),
                          complex(*(rng.uniform(-1.0, 1.0, 2) * 1.5 / math.sqrt(2)))),
                "f_poly": rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1),
                "f_level": int(rng.integers(0, 2)),
                "probe_angles": rng.uniform(0.0, 2.0 * math.pi, 16),
                "family": germspace.unit_majorant_family(space, 0, rng, size=4,
                                                         include_monomials=False),
                "atlas_charts": int(rng.integers(3, 5)),
                "height": float(rng.uniform(0.05, 0.1)),
            })
        return items

    @staticmethod
    def entire(item):
        a, b = item["f_exp"]
        poly = item["f_poly"][::-1]
        return lambda z: a * np.exp(b * z) + np.polyval(poly, z)

    def run_round(self, ctx, item, timed) -> None:
        space = ctx["space"]
        n, ell, eps = item["case"]
        reg_rng = np.random.default_rng(item["regularity_seed"])
        f = self.entire(item)

        def op():
            reg = germspace.compact_regularity_check(space, n, ell, eps,
                                                     self.regularity_trials, reg_rng)
            el = germspace.factorize(space, f, item["f_level"])
            conv = germspace.family_convergence_check(item["family"], R=1.0, r=0.1,
                                                      sup_samples=256)
            ca = complexify.extend_transitions(ctx["atlases"][item["atlas_charts"]],
                                               item["height"])
            cocycles = complexify.certify_cocycles(ca, tol=1e-9)
            return reg, el, conv, cocycles

        reg, el, conv, cocycles = timed(1, op)
        check(reg.status == "pass" and not reg.failures,
              f"compact regularity {reg.status} with {len(reg.failures)} counterexamples")
        for s in el.reps:
            pts = s.anchor + 0.9 * s.radius * np.exp(1j * item["probe_angles"])
            want = f(pts)
            resid = float(np.max(np.abs(s.eval(pts) - want)))
            scale = max(1.0, float(np.max(np.abs(want))))
            check(resid <= s.tail_bound + 1e-12 * scale,
                  f"factorize residual {resid:.3g} exceeds its tail {s.tail_bound:.3g}")
        check(conv.passed, "family convergence estimate failed")
        check(cocycles.passed, f"cocycles did not certify: {cocycles.failures[:1]}")
        check_invariant([el])


WORKLOADS = {w.name: w for w in (BchSweep(), GroupCharts(), Evolution(), GermSpaceChecks())}
