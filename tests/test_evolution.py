import math
import re

import numpy as np
import pytest
import scipy.linalg

from germlie.errors import BudgetError, StructureError
from germlie import evolution
from germlie.evolution import (
    _GAUSS_OFFSET,
    EVOL_BUDGET,
    _clear_of_breakpoints,
    GroupCurve,
    LieCurve,
    _evol_run,
    evol,
    fit_lie_curve,
    group_roundtrip_report,
    log_derivative,
    product_rule_report,
    random_spline_curve,
    rk4_pointwise,
    roundtrip_report,
    smoothness_report,
    trajectory_log_derivative,
    trajectory_to_csv,
)
from germlie.germgroup import random_algebra_element
from germlie.reports import Report
from germlie.germspace import BHolElement, bond, germ_distance
from germlie.series import SeriesStack


def reference_clear_of_breakpoints(idx, steps, breakpoints):
    """The alternating search first written: idx, idx + 1, idx - 1, idx + 2, ...,
    the first node whose 5-point stencil window holds no inner breakpoint."""
    def ok(i):
        if not 2 <= i <= steps - 2:
            return False
        lo, hi = (i - 2) / steps, (i + 2) / steps
        return not any(lo < b < hi for b in breakpoints[1:-1])

    for shift in range(steps):
        for cand in (idx + shift, idx - shift):
            if ok(cand):
                return cand
    return None


def reference_fold(start, terms):
    """start + sum_j w_j c_j by per-coefficient bond/scale/+, at the deepest level."""
    lvl = max(e.level for e in [start] + [c for c, _ in terms])
    out = bond(start, lvl)
    for c, w in terms:
        out = out + bond(c, lvl).scale(w)
    return out


def reference_value(curve, t):
    (i,), (s,) = curve._locate_all([t])
    seg = curve.segments[i]
    return reference_fold(seg[0], [(c, s ** j) for j, c in enumerate(seg[1:], start=1)])


def reference_derivative(curve, t):
    (i,), (s,) = curve._locate_all([t])
    seg = curve.segments[i]
    dt = curve.breakpoints[i + 1] - curve.breakpoints[i]
    lvl = max(c.level for c in seg)
    return reference_fold(curve.group.zero(lvl), [(c, j * s ** (j - 1) / dt)
                                                  for j, c in enumerate(seg[1:], start=1)])


def reference_add_scaled(a, b, alpha):
    zero = a.group.zero(max(a.level, b.level))
    segs = []
    for sa, sb in zip(a.segments, b.segments):
        pad = max(len(sa), len(sb))
        sa, sb = sa + (zero,) * (pad - len(sa)), sb + (zero,) * (pad - len(sb))
        segs.append(tuple(reference_fold(x, [(y, alpha)]) for x, y in zip(sa, sb)))
    return LieCurve(a.group, a.breakpoints, tuple(segs), 1.0)


def assert_identical(got, want, level):
    """Same coefficients, tails and radii once ``want`` is bonded to ``level``."""
    want = bond(want, level)
    assert got.level == level
    for x, y in zip(got.reps, want.reps):
        assert np.array_equal(x.coeffs, y.coeffs)
        assert (x.tail_bound, x.radius) == (y.tail_bound, y.radius)


def mixed_group_curve(group, rng):
    """Two segments, degree 5 and 2, coefficients at levels 1 and 2."""
    cs = [group.identity(1).element] + [random_algebra_element(group, rng, 0.05, level=1 + k % 2)
                                        for k in range(5)]
    return GroupCurve(group, (0.0, 0.4, 1.0), (tuple(cs), tuple(cs[:3])))


def reference_smoothness_report(group, curve, direction, steps=32):
    """smoothness_report with one ``evol`` per curve, the base curve first and
    then s, -s for each scale."""
    scales, window = (0.1, 0.05, 0.025), (1.9, 2.1)
    rep = Report(check="evolution_smoothness_evidence",
                 params={"scales": list(scales), "steps": steps, "order_window": list(window)})
    base = evol(curve, steps, error_estimate=False, keep_trajectory=False)
    base_inv = group.inv(base.endpoint)

    def chart(s):
        shifted = curve.add_scaled(direction, s, budget=curve.budget + abs(s) * 2.0)
        moved = evol(shifted, steps, error_estimate=False, keep_trajectory=False)
        return group.log_germ(group.mul(base_inv, moved.endpoint))

    quotients = [(chart(s) + chart(-s).scale(-1.0)).scale(1.0 / (2.0 * s)) for s in scales]
    diffs = [germ_distance(a, b) for a, b in zip(quotients, quotients[1:])]
    orders = [math.log(diffs[i] / diffs[i + 1]) / math.log(scales[i] / scales[i + 1])
              for i in range(len(diffs) - 1) if diffs[i + 1] > 0]
    rep.trials = len(orders)
    rep.extras = {"orders": orders, "diffs": diffs}
    if not orders:
        return rep.inconclusive("difference quotients at floating-point floor")
    for o in orders:
        rep.note_margin(min(o - window[0], window[1] - o))
        if not window[0] <= o <= window[1]:
            rep.fail({"order": o})
    return rep


def forge_budget(curve, quantile):
    """Set the budget of ``curve`` to a quantile of its value majorants on 65 points."""
    budget = np.quantile([np.max(curve._values([t]).majorant())
                          for t in np.linspace(0.0, 1.0, 65)], quantile)
    object.__setattr__(curve, "budget", float(budget))
    return curve


class TestLieCurve:
    def test_continuity_enforced(self, germ_group, rng):
        a = random_algebra_element(germ_group, rng, 0.1)
        b = random_algebra_element(germ_group, rng, 0.1)
        with pytest.raises(StructureError, match="discontinuous"):
            LieCurve(germ_group, (0.0, 0.5, 1.0), ((a,), (b,)))

    def test_budget_enforced(self, germ_group, rng):
        hot = random_algebra_element(germ_group, rng, 2.0 * EVOL_BUDGET)
        with pytest.raises(BudgetError):
            LieCurve.constant(germ_group, hot)

    def test_breakpoints_validated(self, germ_group, rng):
        xi = random_algebra_element(germ_group, rng, 0.1)
        with pytest.raises(StructureError):
            LieCurve(germ_group, (0.0, 0.5), ((xi,), (xi,)))
        with pytest.raises(StructureError):
            LieCurve(germ_group, (0.1, 1.0), ((xi,),))

    def test_mixed_degree_bounds_rejected(self, germ_group, rng):
        xi, eta = (random_algebra_element(germ_group, rng, 0.1) for _ in range(2))
        short = BHolElement.of(eta.parent, eta.level, (s.truncate(6) for s in eta.reps))
        with pytest.raises(StructureError, match="degree bound"):
            LieCurve(germ_group, (0.0, 1.0), ((xi, short),))

    def test_value_matches_reference_fold(self, germ_group, rng):
        xi, eta, zeta = (random_algebra_element(germ_group, rng, 0.1, level=lvl)
                         for lvl in (1, 2, 3))
        for curve in (random_spline_curve(germ_group, rng),
                      LieCurve(germ_group, (0.0, 1.0), ((xi, eta, zeta),))):
            for t in np.linspace(0.0, 1.0, 37):
                assert_identical(curve.value(t), reference_value(curve, t), curve.level)

    def test_add_scaled_matches_reference_fold(self, germ_group, rng):
        a = random_spline_curve(germ_group, rng)
        xi = random_algebra_element(germ_group, rng, 0.1, level=2)
        for b in (random_spline_curve(germ_group, rng),
                  LieCurve(germ_group, a.breakpoints, ((xi,), (xi,)))):
            got = a.add_scaled(b, -0.3, budget=1.0)
            want = reference_add_scaled(a, b, -0.3)
            for t in np.linspace(0.0, 1.0, 37):
                assert_identical(got.value(t), reference_value(want, t), want.level)

    def test_values_match_reference_fold_row_for_row(self, germ_group, rng):
        dt = 1.0 / 64
        gauss = [tm + k * _GAUSS_OFFSET * dt for tm in (0.5 * dt, 63 * dt + 0.5 * dt)
                 for k in (-1.0, 1.0)]
        anchors = len(germ_group.space.anchors)
        for n_segments in (2, 3):
            curve = random_spline_curve(germ_group, rng, n_segments)
            ts = [*curve.breakpoints, *gauss, *rng.uniform(0.0, 1.0, 5)]
            got = curve._values(ts)
            assert got.coeffs.shape[0] == len(ts) * anchors
            for r, t in enumerate(ts):
                rows = got.rows(slice(r * anchors, (r + 1) * anchors))
                assert_identical(curve._element(rows), reference_value(curve, t), curve.level)

    def test_values_on_a_named_segment_read_its_ends(self, germ_group, rng):
        # a breakpoint on segment i is that polynomial at s = 1, on i + 1 at s = 0
        curve = random_spline_curve(germ_group, rng, 3)
        for i, seg in enumerate(curve.segments):
            lo, hi = curve.breakpoints[i:i + 2]
            start, end = (curve._element(curve._values([t], segment=i)) for t in (lo, hi))
            assert_identical(start, seg[0], curve.level)
            assert_identical(end, reference_fold(seg[0], [(c, 1.0) for c in seg[1:]]),
                             curve.level)

    def test_value_evaluates_local_polynomial(self, germ_group, rng):
        xi = random_algebra_element(germ_group, rng, 0.1)
        eta = random_algebra_element(germ_group, rng, 0.05)
        curve = LieCurve(germ_group, (0.0, 1.0), ((xi, eta),))
        got = curve.value(0.25)
        want = xi + eta.scale(0.25)
        assert germ_distance(got, want) < 1e-15


class TestEvol:
    def test_constant_curve_equals_exp(self, germ_group, rng):
        xi = random_algebra_element(germ_group, rng, 0.3)
        res = evol(LieCurve.constant(germ_group, xi), 64)
        assert res.error_estimate < 1e-10
        assert germ_distance(res.endpoint.element,
                             germ_group.exp_germ(xi).element) < 1e-8

    def test_abelian_reduction(self, germ_group, rng):
        # commuting values gamma(t) = p(t) xi: endpoint is exp(int p dt * xi)
        xi = random_algebra_element(germ_group, rng, 0.1)
        segs = ((xi, xi.scale(-1.0), xi.scale(1.0)),)  # p(s) = 1 - s + s^2
        curve = LieCurve(germ_group, (0.0, 1.0), segs)
        res = evol(curve, 64, error_estimate=False)
        want = germ_group.exp_germ(xi.scale(1.0 - 0.5 + 1.0 / 3.0))
        assert germ_distance(res.endpoint.element, want.element) < 1e-12

    def test_starts_at_identity(self, germ_group, rng):
        curve = random_spline_curve(germ_group, rng)
        res = evol(curve, 8, error_estimate=False)
        assert germ_distance(res.trajectory[0].element,
                             germ_group.identity(curve.level).element) == 0.0

    def test_matches_pointwise_rk4(self, germ_group, rng):
        pts = germ_group.space.sample_points(1, 20, interior=0.4)
        for _ in range(3):
            curve = random_spline_curve(germ_group, rng)
            res = evol(curve, 64, error_estimate=False, keep_trajectory=False)
            oracle = rk4_pointwise(curve, pts, 640)
            assert np.max(np.abs(res.endpoint.eval(pts) - oracle)) < 1e-6

    def test_fourth_order_against_rk4(self, germ_group):
        # the commutator term of eta' = eta . gamma is [g1, g2]; the other
        # sign leaves a second-order scheme
        curve = random_spline_curve(germ_group, np.random.default_rng(3))
        pts = germ_group.space.sample_points(1, 20, interior=0.4)
        oracle = rk4_pointwise(curve, pts, 4000)
        errs = [np.max(np.abs(evol(curve, n, error_estimate=False, keep_trajectory=False)
                              .endpoint.eval(pts) - oracle)) for n in (8, 16)]
        assert np.log2(errs[0] / errs[1]) >= 3.5

    def test_endpoint_matches_reference_fold(self, germ_group, rng, monkeypatch):
        curve = random_spline_curve(germ_group, rng)
        got = evol(curve, 16)
        nodes = []

        def reference_values(self, ts):
            nodes.extend(ts)
            return SeriesStack.from_series([s for t in ts
                                            for s in bond(reference_value(self, t),
                                                          self.level).reps])

        monkeypatch.setattr(LieCurve, "_values", reference_values)
        want = evol(curve, 16)
        assert len(nodes) == 2 * (16 + 32)  # two Gauss nodes per step, step doubling
        assert_identical(got.endpoint.element, want.endpoint.element, curve.level)
        for a, b in zip(got.trajectory, want.trajectory):
            assert_identical(a.element, b.element, curve.level)
        assert got.error_estimate == want.error_estimate

    def test_one_exponential_per_step(self, germ_group, rng, monkeypatch):
        # 40 steps span blocks of 16, 16 and 8, the doubled run five full blocks
        curve = random_spline_curve(germ_group, rng)
        rows = []
        exp = SeriesStack.exp

        def counted(self):
            rows.append(len(self.tail))
            return exp(self)

        monkeypatch.setattr(SeriesStack, "exp", counted)
        evol(curve, 40)
        anchors = len(germ_group.space.anchors)
        assert rows == [anchors] * (40 + 80)

    def test_rk4_oracle_on_constant_curve_is_expm(self, germ_group, rng):
        xi = random_algebra_element(germ_group, rng, 0.3)
        pts = germ_group.space.sample_points(1, 20, interior=0.4)
        got = rk4_pointwise(LieCurve.constant(germ_group, xi), pts, 640)
        assert np.max(np.abs(got - scipy.linalg.expm(xi.eval(pts)))) < 1e-10

    def test_step_count_precondition(self, germ_group, rng):
        xi = random_algebra_element(germ_group, rng, 0.1)
        with pytest.raises(StructureError):
            evol(LieCurve.constant(germ_group, xi), 2)

    def test_midintegration_budget_error_names_t(self, germ_group, rng):
        curve = random_spline_curve(germ_group, rng)
        object.__setattr__(curve, "budget", 1e-9)  # simulate stale certificate
        with pytest.raises(BudgetError, match="t ="):
            evol(curve, 8)

    @pytest.mark.parametrize("seed, message", [
        (2, "t = 0.414062: majorant 0.08052 > 0.08003"),
        (3, "t = 0.476562: majorant 0.07382 > 0.0727"),
        (5, "t = 0.460938: majorant 0.1312 > 0.1312"),
    ])
    def test_budget_error_in_a_later_block_names_first_t(self, germ_group, seed, message):
        curve = random_spline_curve(germ_group, np.random.default_rng(seed))
        budget = np.quantile([np.max(curve._values([t]).majorant())
                              for t in np.linspace(0.0, 1.0, 65)], 0.6)
        object.__setattr__(curve, "budget", float(budget))
        with pytest.raises(BudgetError,
                           match="^" + re.escape("evolution budget violated at " + message) + "$"):
            evol(curve, 64)

    def test_budget_error_for_a_single_offending_step(self, germ_group):
        curve = random_spline_curve(germ_group, np.random.default_rng(2))
        dt = 1.0 / 64
        tms = [i * dt + 0.5 * dt for i in range(64)]
        worst = [max(np.max(curve._values([tm + k * _GAUSS_OFFSET * dt]).majorant())
                     for k in (-1.0, 1.0)) for tm in tms]
        object.__setattr__(curve, "budget", float(sorted(worst)[-2]))
        with pytest.raises(BudgetError, match=f"t = {tms[int(np.argmax(worst))]:.6g}:"):
            evol(curve, 64)

    def test_lockstep_run_equals_single_curve_runs(self, germ_group, rng):
        # different segment counts and levels: the stacked rows carry different radii
        curves = (random_spline_curve(germ_group, rng, 2),
                  random_spline_curve(germ_group, rng, 3),
                  LieCurve.constant(germ_group, random_algebra_element(germ_group, rng, 0.1,
                                                                       level=2)))
        ends, times, snaps = _evol_run(curves, 24, True)
        assert [c.level for c in curves] == [1, 1, 2]
        anchors = len(germ_group.space.anchors)
        for k, curve in enumerate(curves):
            (want,), want_times, want_snaps = _evol_run((curve,), 24, True)
            assert times == want_times
            assert_identical(ends[k].element, want.element, curve.level)
            assert ends[k].cert_margin == want.cert_margin
            for got, ref in zip(snaps, want_snaps, strict=True):
                rows = slice(k * anchors, (k + 1) * anchors)
                assert np.array_equal(got.coeffs[rows], ref.coeffs)
                assert np.array_equal(got.tail[rows], ref.tail)
                assert np.array_equal(got.radius[rows], ref.radius)

    def test_lockstep_budget_error_names_the_offending_curves_t(self, germ_group, rng):
        curve = random_spline_curve(germ_group, rng)
        shifted = forge_budget(curve.add_scaled(random_spline_curve(germ_group, rng), 0.1), 0.6)
        with pytest.raises(BudgetError) as single:
            evol(shifted, 64)
        with pytest.raises(BudgetError, match="^" + re.escape(str(single.value)) + "$"):
            _evol_run((curve, curve, shifted), 64, False)

    def test_lockstep_budget_error_names_first_t_over_all_curves(self, germ_group):
        # seed 3 first offends at t = 0.476562, seed 2 at t = 0.414062: one block
        late, early = (forge_budget(random_spline_curve(germ_group, np.random.default_rng(seed)),
                                    0.6) for seed in (3, 2))
        message = "evolution budget violated at t = 0.414062: majorant 0.08052 > 0.08003"
        with pytest.raises(BudgetError, match="^" + re.escape(message) + "$"):
            _evol_run((late, early), 64, False)

    def test_reparametrization_invariance(self, germ_group, rng):
        # curve supported on [0, 1/2] vs its affine reparametrization
        xi = random_algebra_element(germ_group, rng, 0.15)
        zero = germ_group.zero(1)
        taper = LieCurve(germ_group, (0.0, 0.5, 1.0),
                         ((xi, xi.scale(-1.0)), (zero,)))  # (1 - s) xi then 0
        squashed = LieCurve(germ_group, (0.0, 1.0),
                            ((xi.scale(0.5), xi.scale(-0.5)),))
        e1 = evol(taper, 64, error_estimate=False, keep_trajectory=False)
        e2 = evol(squashed, 64, error_estimate=False, keep_trajectory=False)
        assert germ_distance(e1.endpoint.element, e2.endpoint.element) < 1e-6

    def test_concatenation_cocycle(self, germ_group, rng):
        curve = random_spline_curve(germ_group, rng, n_segments=2)
        full = evol(curve, 64, error_estimate=False, keep_trajectory=False)
        # evolve each half over a rescaled clock and multiply
        def half_curve(lo, hi):
            def fn(t):
                return curve.value(lo + t * (hi - lo)).scale(hi - lo)
            return fit_lie_curve(germ_group, fn, n_segments=4)
        first = evol(half_curve(0.0, 0.5), 32, error_estimate=False,
                     keep_trajectory=False)
        second = evol(half_curve(0.5, 1.0), 32, error_estimate=False,
                      keep_trajectory=False)
        prod = germ_group.mul(first.endpoint, second.endpoint)
        assert germ_distance(prod.element, full.endpoint.element) < 1e-6

    def test_csv_export(self, germ_group, rng, tmp_path):
        curve = random_spline_curve(germ_group, rng)
        res = evol(curve, 8, error_estimate=False)
        pts = germ_group.space.sample_points(1, 3, interior=0.4)
        path = tmp_path / "traj.csv"
        trajectory_to_csv(res, pts, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,point,re_00,im_00,re_01,im_01,re_10,im_10,re_11,im_11"
        assert len(lines) == 1 + 9 * 3
        rows = iter(lines[1:])
        for t, g in zip(res.times, res.trajectory, strict=True):
            want = g.eval(pts)
            for p in range(len(pts)):
                cells = next(rows).split(",")
                assert (float(cells[0]), int(cells[1])) == (t, p)
                vals = np.array([float(x) for x in cells[2:]]).view(complex).reshape(2, 2)
                assert np.array_equal(vals, want[p])


class TestGroupCurve:
    def test_value_and_derivative_match_reference_fold(self, germ_group, rng):
        gc = mixed_group_curve(germ_group, rng)
        for t in np.linspace(0.0, 1.0, 37):
            assert_identical(gc.value(t).element, reference_value(gc, t), gc.level)
            assert_identical(gc.derivative(t), reference_derivative(gc, t), gc.level)

    def test_spline_folds_match_reference_fold(self, germ_group):
        # random splines, and group curves 1 + spline, value and derivative
        for seed in range(4):
            spline = random_spline_curve(germ_group, np.random.default_rng(seed), n_segments=3)
            ident = germ_group.identity(spline.level).element
            gc = GroupCurve(germ_group, spline.breakpoints,
                            tuple((ident + seg[0],) + seg[1:] for seg in spline.segments))
            for t in np.linspace(0.0, 1.0, 23):
                assert_identical(spline.value(t), reference_value(spline, t), spline.level)
                assert_identical(gc.value(t).element, reference_value(gc, t), gc.level)
                assert_identical(gc.derivative(t), reference_derivative(gc, t), gc.level)

    def test_breakpoints_validated(self, germ_group):
        ident = germ_group.identity(1).element
        with pytest.raises(StructureError):
            GroupCurve(germ_group, (0.0, 0.5), ((ident,),))
        with pytest.raises(StructureError):
            GroupCurve(germ_group, (0.0, 0.6, 0.6, 1.0), ((ident,),) * 3)

    def test_parameter_outside_unit_interval(self, germ_group, rng):
        gc = mixed_group_curve(germ_group, rng)
        for fn in (gc.value, gc.derivative, lambda t: log_derivative(gc, t)):
            with pytest.raises(StructureError, match="outside"):
                fn(1.5)


class TestLogDerivative:
    def test_one_parameter_subgroup(self, germ_group, rng):
        xi = random_algebra_element(germ_group, rng, 0.2)
        res = evol(LieCurve.constant(germ_group, xi), 64, error_estimate=False)
        mid = trajectory_log_derivative(germ_group, res, 32)
        assert germ_distance(mid, xi) < 1e-8

    def test_constant_curve_has_zero_derivative(self, germ_group, rng):
        g = germ_group.exp_germ(random_algebra_element(germ_group, rng, 0.2))
        gc = GroupCurve(germ_group, (0.0, 1.0), ((g.element,),))
        d = log_derivative(gc, 0.3)
        assert d.norm_upper < 1e-12

    def test_polynomial_group_curve(self, germ_group, rng):
        # gamma(t) = 1 + t a has delta^l gamma(t) = (1 + t a)^{-1} a
        ident = germ_group.identity(1).element
        a = random_algebra_element(germ_group, rng, 0.12)
        gc = GroupCurve(germ_group, (0.0, 1.0), ((ident, a),))
        t = 0.4
        got = log_derivative(gc, t)
        pts = germ_group.space.sample_points(1, 10, interior=0.4)
        rhs = np.linalg.inv(gc.value(t).eval(pts)) @ a.eval(pts)
        assert np.max(np.abs(got.eval(pts) - rhs)) < 1e-10

    def test_roundtrip_recovers_curve(self, germ_group, rng):
        curve = random_spline_curve(germ_group, rng)
        rep = roundtrip_report(germ_group, curve, steps=128)
        assert rep.passed
        assert rep.extras["worst_err"] < 1e-6

    def test_roundtrip_checks_each_node_once(self, germ_group, rng, monkeypatch):
        # at 16 steps the sample at node 8 is nudged off the breakpoint 0.5 onto node 10
        curve = random_spline_curve(germ_group, rng)
        nodes = []
        stencil = evolution.trajectory_log_derivative
        monkeypatch.setattr(evolution, "trajectory_log_derivative",
                            lambda group, result, index: nodes.append(index)
                            or stencil(group, result, index))
        rep = roundtrip_report(germ_group, curve, steps=16, n_samples=7)
        assert nodes == [2, 4, 6, 10, 12, 14]
        assert rep.trials == 6

    def test_evolution_of_log_derivative(self, germ_group, rng):
        ident = germ_group.identity(1).element
        a = random_algebra_element(germ_group, rng, 0.12)
        b = random_algebra_element(germ_group, rng, 0.08)
        gc = GroupCurve(germ_group, (0.0, 1.0), ((ident, a, b),))
        rep = group_roundtrip_report(germ_group, gc)
        assert rep.passed

    def test_product_rule(self, germ_group, rng):
        ident = germ_group.identity(1).element
        ga = GroupCurve(germ_group, (0.0, 1.0),
                        ((ident, random_algebra_element(germ_group, rng, 0.1),
                          random_algebra_element(germ_group, rng, 0.06)),))
        gb = GroupCurve(germ_group, (0.0, 1.0),
                        ((ident, random_algebra_element(germ_group, rng, 0.1)),))
        rep = product_rule_report(germ_group, ga, gb, ts=[0.15, 0.5, 0.85])
        assert rep.passed
        assert rep.extras["worst_err"] < 1e-8

    def test_no_samples_is_inconclusive(self, germ_group, rng):
        curve = random_spline_curve(germ_group, rng)
        gc = GroupCurve(germ_group, (0.0, 1.0), ((germ_group.identity(1).element,),))
        for rep in (roundtrip_report(germ_group, curve, steps=16, n_samples=0),
                    product_rule_report(germ_group, gc, gc, ts=[])):
            assert rep.status == "inconclusive" and rep.trials == 0
            assert rep.extras["reason"] and rep.worst_margin is None

    def test_product_rule_counts_generator_samples(self, germ_group, rng):
        ident = germ_group.identity(1).element
        ga = GroupCurve(germ_group, (0.0, 1.0),
                        ((ident, random_algebra_element(germ_group, rng, 0.1)),))
        rep = product_rule_report(germ_group, ga, ga, ts=(t for t in (0.2, 0.7)))
        assert rep.trials == 2


class TestFit:
    def test_cubic_fit_is_exact(self, germ_group, rng):
        coeffs = [random_algebra_element(germ_group, rng, 0.05) for _ in range(4)]

        def fn(t):
            out = coeffs[0]
            for j, c in enumerate(coeffs[1:], start=1):
                out = out + c.scale(t ** j)
            return out

        fitted = fit_lie_curve(germ_group, fn, n_segments=2)
        for t in (0.1, 0.37, 0.77):
            assert germ_distance(fitted.value(t), fn(t)) < 1e-13

    def test_coefficients_match_reference_fold(self, germ_group, rng):
        # the Lagrange solve as scale and + over the node values, levels mixed
        nodes = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
        vand_inv = np.linalg.inv(np.vander(nodes, 4, increasing=True))
        coeffs = [random_algebra_element(germ_group, rng, 0.05) for _ in range(3)]

        def fn(t):
            out = coeffs[0].scale(math.cos(t)) + coeffs[1].scale(t * t) + coeffs[2]
            return bond(out, 2) if t > 0.5 else out

        fitted = fit_lie_curve(germ_group, fn, n_segments=3)
        for i, seg in enumerate(fitted.segments):
            t0, t1 = fitted.breakpoints[i], fitted.breakpoints[i + 1]
            values = [fn(t0 + s * (t1 - t0)) for s in nodes]
            for got, row in zip(seg, vand_inv):
                want = reference_fold(values[0].scale(row[0]), list(zip(values[1:], row[1:])))
                assert_identical(got, want, want.level)

    def test_needs_a_segment(self, germ_group):
        def fn(t):
            raise AssertionError("fn called")

        with pytest.raises(StructureError, match="segment"):
            fit_lie_curve(germ_group, fn, 0)


class TestSmoothness:
    def test_orders_near_two(self, germ_group, rng):
        curve = random_spline_curve(germ_group, rng)
        direction = random_spline_curve(germ_group, rng)
        rep = smoothness_report(germ_group, curve, direction, steps=32)
        assert rep.passed
        assert all(1.9 <= o <= 2.1 for o in rep.extras["orders"])

    def test_lockstep_matches_reference(self, germ_group):
        rng = np.random.default_rng(53)
        for k in range(6):
            curve = random_spline_curve(germ_group, rng, 2 + k % 2)
            direction = random_spline_curve(germ_group, rng, 2 + k % 2)
            if k == 3:  # one level deeper than the curve
                direction = LieCurve(germ_group, direction.breakpoints,
                                     tuple(tuple(bond(c, 2) for c in seg)
                                           for seg in direction.segments))
            got = smoothness_report(germ_group, curve, direction, steps=32)
            want = reference_smoothness_report(germ_group, curve, direction, steps=32)
            assert (got.status, got.trials, got.worst_margin) == \
                (want.status, want.trials, want.worst_margin)
            assert got.extras == want.extras
            assert got.params == want.params

    def test_one_exponential_per_step_for_all_seven_curves(self, germ_group, rng, monkeypatch):
        curve = random_spline_curve(germ_group, rng)
        direction = random_spline_curve(germ_group, rng)
        rows = []
        exp = SeriesStack.exp

        def counted(self):
            rows.append(len(self.tail))
            return exp(self)

        monkeypatch.setattr(SeriesStack, "exp", counted)
        smoothness_report(germ_group, curve, direction, steps=32)
        assert rows == [7 * len(germ_group.space.anchors)] * 32

    @pytest.mark.parametrize("seed", range(4))
    def test_linear_direction_is_at_the_rounding_floor(self, germ_group, seed):
        # the charts of xi + s * c xi are exactly linear in s: the quotients
        # differ by rounding alone, which carries no order
        rng = np.random.default_rng(seed)
        xi = random_algebra_element(germ_group, rng, 0.1)
        rep = smoothness_report(germ_group, LieCurve.constant(germ_group, xi),
                                LieCurve.constant(germ_group, xi.scale(rng.uniform(0.2, 1.0))))
        assert max(rep.extras["diffs"]) < 1e-12
        assert rep.status == "inconclusive"
        assert rep.extras["reason"] == "difference quotients at floating-point floor"
        assert rep.extras["orders"] == [] and rep.trials == 0

    def test_zero_difference_is_at_the_rounding_floor(self, germ_group, rng, monkeypatch):
        diffs = iter([0.0, 3e-13])
        monkeypatch.setattr(evolution, "germ_distance", lambda a, b: next(diffs))
        xi = random_algebra_element(germ_group, rng, 0.1)
        rep = smoothness_report(germ_group, LieCurve.constant(germ_group, xi),
                                LieCurve.constant(germ_group, xi))
        assert rep.status == "inconclusive"
        assert rep.extras["diffs"] == [0.0, 3e-13]

    def test_steps_precondition(self, germ_group, rng):
        xi = random_algebra_element(germ_group, rng, 0.1)
        curve = LieCurve.constant(germ_group, xi)
        with pytest.raises(StructureError, match="steps"):
            smoothness_report(germ_group, curve, curve, steps=2)


class TestClearOfBreakpoints:
    @staticmethod
    def breakpoint_sets(steps):
        k = steps // 2
        return {
            "none": (0.0, 1.0),
            "on a node": (0.0, k / steps, 1.0),
            "between nodes": (0.0, (k + 0.5) / steps, 1.0),
            "two close together": (0.0, 0.3, 0.3 + 0.5 / steps, 1.0),
            "every node": tuple(np.arange(steps + 1) / steps),
        }

    @pytest.mark.parametrize("steps", range(4, 41))
    def test_matches_the_alternating_search(self, steps):
        for name, bps in self.breakpoint_sets(steps).items():
            for idx in range(steps + 1):
                want = reference_clear_of_breakpoints(idx, steps, bps)
                assert _clear_of_breakpoints(idx, steps, bps) == want, (name, idx)
                assert name != "every node" or want is None

    def test_ties_go_to_the_later_node(self):
        # a breakpoint on node 10 blocks nodes 9-11; 8 and 12 are both two away
        assert _clear_of_breakpoints(10, 20, (0.0, 0.5, 1.0)) == 12
