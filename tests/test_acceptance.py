"""Acceptance gate: every criterion at its stated tolerance and time budget.

Each test prints one PASS/FAIL line (visible with ``pytest -s``); the
assertions pin the tolerances, trial counts and runtime limits.
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg

from germlie.complexify import (
    annulus_consistency,
    certify_cocycles,
    circle_atlas,
    extend_transitions,
    perturb_transition,
    uniqueness_biholomorphism,
)
from germlie.errors import BudgetError
from germlie.evolution import (
    GroupCurve,
    LieCurve,
    evol,
    product_rule_report,
    random_spline_curve,
    rk4_pointwise,
    roundtrip_report,
    smoothness_report,
)
from germlie.germgroup import (
    GermLieGroup,
    random_algebra_element,
    random_group_element,
)
from germlie.germspace import (
    GermSpace,
    bond,
    compact_regularity_check,
    family_convergence_check,
    germ_distance,
    unit_majorant_family,
)
from germlie.matrixlie import MatrixLieBackend
from germlie.series import cauchy_coefficients, matrix_space


def _report(num, passed, detail, elapsed, limit):
    line = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num} {line}: {detail} [{elapsed:.1f}s / limit {limit}s]")
    assert passed, detail
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget: {elapsed:.1f}s"


@pytest.fixture(scope="module")
def group():
    space = GermSpace(anchors=(0.0, 1.5 + 0.5j), base_radius=1.0, ratio=0.1,
                      levels=6, space=matrix_space(2), degree_bound=12)
    return GermLieGroup(space, MatrixLieBackend(2, 8))


def test_criterion_1_bch_against_matrix_log():
    t0 = time.time()
    backend = MatrixLieBackend(2, 8)
    rng = np.random.default_rng(101)
    n = 1000
    xs, ys = [], []
    for _ in range(n):
        split = rng.uniform(0.25, 0.75)
        total = 0.3 * rng.uniform(0.3, 1.0)
        xs.append(backend.random_element(rng, split * total))
        ys.append(backend.random_element(rng, (1 - split) * total))
    zs = backend.bch(np.stack(xs), np.stack(ys))
    worst = 0.0
    for x, y, z in zip(xs, ys, zs):
        oracle = scipy.linalg.logm(scipy.linalg.expm(x) @ scipy.linalg.expm(y))
        worst = max(worst, float(backend.norm(z - oracle)))
    elapsed = time.time() - t0
    _report(1, worst <= 1e-9,
            f"1000 pairs, worst |bch - log(exp exp)| = {worst:.3g} <= 1e-9",
            elapsed, 10)


def test_criterion_2_local_group_axioms(group):
    t0 = time.time()
    rng = np.random.default_rng(202)
    n = 500
    triples = [tuple(random_algebra_element(group, rng, 0.04 * rng.uniform(0.3, 1.0))
                     for _ in range(3)) for _ in range(n)]
    pts = group.space.sample_points(1, 20, interior=0.4)
    xy = group.bch_pairs([(a, b) for a, b, _ in triples])
    yz = group.bch_pairs([(b, c) for _, b, c in triples])
    lhs = group.bch_pairs(list(zip(xy, (c for _, _, c in triples))))
    rhs = group.bch_pairs(list(zip((a for a, _, _ in triples), yz)))
    worst_assoc = 0.0
    for le, re_ in zip(lhs, rhs):
        worst_assoc = max(worst_assoc, float(np.max(
            group.backend.norm(le.eval(pts) - re_.eval(pts)))))
    # Loc2 and Loc3 on a subsample: exact unit and inverse laws
    zero = group.zero(1)
    worst_unit = worst_inv = 0.0
    for a, b, _ in triples[:50]:
        worst_unit = max(worst_unit, germ_distance(group.germ_bch(a, zero), a),
                         germ_distance(group.germ_bch(zero, a), a))
        worst_inv = max(worst_inv,
                        germ_distance(group.germ_bch(a, a.scale(-1.0)), zero))
        # Loc4: (x, y) in the domain implies (-y, -x) is
        group.germ_bch(b.scale(-1.0), a.scale(-1.0))
    elapsed = time.time() - t0
    ok = worst_assoc <= 1e-8 and worst_unit == 0.0 and worst_inv == 0.0
    _report(2, ok,
            f"500 triples, worst associativity residual {worst_assoc:.3g} <= 1e-8, "
            f"unit/inverse laws exact", elapsed, 60)


def test_criterion_3_family_convergence_estimate():
    t0 = time.time()
    rng = np.random.default_rng(303)
    space = GermSpace(anchors=(0.0, 0.4 + 0.1j), base_radius=1.0, ratio=0.1, levels=6)
    worst_margin = math.inf
    for _ in range(1000):
        fam = unit_majorant_family(space, 0, rng, size=4, include_monomials=False)
        rep = family_convergence_check(fam, R=1.0, r=0.1, sup_samples=256)
        assert rep.passed
        worst_margin = min(worst_margin, rep.worst_margin)
    # negative control: geometric growth at rate 1/r with r beyond the budget
    r_bad = 0.25
    el = space.element_from_coeff_lists(
        [[(k, r_bad ** -k) for k in range(13)] for _ in space.anchors], 0)
    with pytest.raises(BudgetError):
        family_convergence_check([el], R=1.0, r=r_bad)
    forced = family_convergence_check([el], R=1.0, r=r_bad, enforce_ratio=False)
    elapsed = time.time() - t0
    _report(3, not forced.passed and worst_margin > 0,
            f"1000 families hold the estimate (worst margin {worst_margin:.3g}); "
            f"negative control rejected", elapsed, 30)


def test_criterion_4_compact_regularity():
    t0 = time.time()
    space = GermSpace(anchors=(0.0, 0.4 + 0.1j), base_radius=1.0, ratio=0.1,
                      levels=6, degree_bound=12)
    counterexamples = 0
    cases = []
    for n in (1, 2):
        for ell in (3, 4):
            for eps in (0.5, 0.1):
                rng = np.random.default_rng(40_000 + 100 * n + 10 * ell + int(10 * eps))
                rep = compact_regularity_check(space, n, ell, eps, 1000, rng)
                counterexamples += len(rep.failures)
                cases.append((n, ell, eps, rep.extras["delta"], rep.worst_margin))
                assert rep.status == "pass"
    elapsed = time.time() - t0
    _report(4, counterexamples == 0,
            f"8 (n, ell, eps) cases x 1000 trials, zero counterexamples "
            f"(deltas {sorted(set(round(c[3], 6) for c in cases))})",
            elapsed, 120)


def test_criterion_5_factorization_isometry():
    t0 = time.time()
    rng = np.random.default_rng(505)
    worst_coeff = worst_sup = 0.0
    for _ in range(200):
        deg = int(rng.integers(0, 9))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)

        def f(z, c=coeffs):
            return np.polyval(c[::-1], z)

        betas, circle_sup, rq = cauchy_coefficients(f, 0.0, 1.0, 8, 256)
        pad = np.zeros(9, complex)
        pad[: deg + 1] = coeffs
        worst_coeff = max(worst_coeff, float(np.max(np.abs(betas - pad))))
        # sup-norm comparison on shared samples of the quadrature circle
        theta = np.exp(2j * np.pi * np.arange(128) / 128)
        recon = np.polyval(betas[::-1], rq * theta)
        direct = f(rq * theta)
        worst_sup = max(worst_sup, float(np.max(np.abs(recon - direct))))
    elapsed = time.time() - t0
    ok = worst_coeff <= 1e-10 and worst_sup <= 1e-8
    _report(5, ok,
            f"200 degree<=8 polynomials at Q=256: coefficients to {worst_coeff:.3g} "
            f"(<=1e-10), sup samples to {worst_sup:.3g} (<=1e-8)", elapsed, 10)


def test_criterion_6_exp_log_charts(group):
    t0 = time.time()
    rng = np.random.default_rng(606)
    worst_rt = 0.0
    for _ in range(500):
        eta = random_algebra_element(group, rng,
                                     group.inj_radius * 0.9 * rng.uniform(0.1, 1.0))
        assert group.in_injectivity_domain(eta)
        worst_rt = max(worst_rt, germ_distance(group.log_germ(group.exp_germ(eta)), eta))
    pts = group.space.sample_points(1, 20, interior=0.4)
    worst_pow = worst_hom = 0.0
    for _ in range(100):
        x = random_algebra_element(group, rng, 0.05 * rng.uniform(0.2, 1.0))
        y = random_algebra_element(group, rng, 0.05 * rng.uniform(0.2, 1.0))
        gx = group.exp_germ(x)
        for n in (2, 3, 4):
            pw = group.power(gx, n)
            direct = group.exp_germ(x.scale(float(n)))
            worst_pow = max(worst_pow, float(np.max(
                group.backend.norm(pw.eval(pts) - direct.eval(pts)))))
        lhs = group.exp_germ(group.germ_bch(x, y))
        rhs = group.mul(gx, group.exp_germ(y))
        worst_hom = max(worst_hom, float(np.max(
            group.backend.norm(lhs.eval(pts) - rhs.eval(pts)))))
    elapsed = time.time() - t0
    ok = worst_rt <= 1e-9 and worst_pow <= 1e-9 and worst_hom <= 1e-9
    _report(6, ok,
            f"500 roundtrips (worst {worst_rt:.3g}), powers n<=4 "
            f"(worst {worst_pow:.3g}), homomorphism (worst {worst_hom:.3g}), all <= 1e-9",
            elapsed, 60)


def test_criterion_7_adjoint_action(group):
    t0 = time.time()
    rng = np.random.default_rng(707)
    pts = group.space.sample_points(1, 20, interior=0.4)
    worst_conj = 0.0
    for _ in range(200):
        gamma = random_group_element(group, rng, 0.25 * rng.uniform(0.2, 1.0))
        eta = random_algebra_element(group, rng, 0.15 * rng.uniform(0.2, 1.0))
        ad_eta, _ = group.adjoint(gamma, eta)
        lhs = group.mul(group.mul(gamma, group.exp_germ(eta)), group.inv(gamma))
        rhs = group.exp_germ(ad_eta)
        worst_conj = max(worst_conj, float(np.max(
            group.backend.norm(lhs.eval(pts) - rhs.eval(pts)))))
    bound_violations = 0
    worst_lin = 0.0
    for _ in range(1000):
        gamma = random_group_element(group, rng, 0.3 * rng.uniform(0.1, 1.0))
        eta = random_algebra_element(group, rng, 0.3 * rng.uniform(0.05, 1.0))
        xi = random_algebra_element(group, rng, 0.3 * rng.uniform(0.05, 1.0))
        out, bound = group.adjoint(gamma, eta)
        if out.norm_upper > bound * eta.norm_upper + 1e-12:
            bound_violations += 1
        a, b = 1.3 - 0.4j, -0.7 + 0.9j
        lin_lhs, _ = group.adjoint(gamma, eta.scale(a) + xi.scale(b))
        r1, _ = group.adjoint(gamma, eta)
        r2, _ = group.adjoint(gamma, xi)
        worst_lin = max(worst_lin, germ_distance(lin_lhs, r1.scale(a) + r2.scale(b)))
    elapsed = time.time() - t0
    ok = worst_conj <= 1e-9 and bound_violations == 0 and worst_lin <= 1e-10
    _report(7, ok,
            f"conjugation identity worst {worst_conj:.3g} <= 1e-9 on 200 pairs; "
            f"0/1000 bound violations; linearity worst {worst_lin:.3g} <= 1e-10",
            elapsed, 60)


def test_criterion_8_evolution_evidence(group):
    t0 = time.time()
    rng = np.random.default_rng(808)
    # constant curves reduce to the exponential
    worst_const = 0.0
    for _ in range(20):
        xi = random_algebra_element(group, rng, 0.3 * rng.uniform(0.2, 1.0))
        res = evol(LieCurve.constant(group, xi), 64, error_estimate=False,
                   keep_trajectory=False)
        worst_const = max(worst_const, germ_distance(
            res.endpoint.element, group.exp_germ(xi).element))
    # germ evolution against the pointwise classical RK4 oracle at 10x steps
    pts = group.space.sample_points(1, 20, interior=0.4)
    worst_ode = 0.0
    for _ in range(100):
        curve = random_spline_curve(group, rng)
        end = evol(curve, 64, error_estimate=False, keep_trajectory=False).endpoint
        oracle = rk4_pointwise(curve, pts, 640)
        worst_ode = max(worst_ode, float(np.max(np.abs(end.eval(pts) - oracle))))
    # directional difference quotients: observed order in [1.9, 2.1]
    orders = []
    for _ in range(50):
        curve = random_spline_curve(group, rng)
        direction = random_spline_curve(group, rng)
        rep = smoothness_report(group, curve, direction, steps=32)
        assert rep.status == "pass"
        orders.extend(rep.extras["orders"])
    elapsed = time.time() - t0
    ok = (worst_const <= 1e-8 and worst_ode <= 1e-6
          and all(1.9 <= o <= 2.1 for o in orders))
    _report(8, ok,
            f"constant curves {worst_const:.3g} <= 1e-8; 100 curves vs RK4 "
            f"{worst_ode:.3g} <= 1e-6; 50 order estimates in "
            f"[{min(orders):.3f}, {max(orders):.3f}] within [1.9, 2.1]",
            elapsed, 300)


def test_criterion_9_log_derivative_roundtrips(group):
    t0 = time.time()
    rng = np.random.default_rng(909)
    worst_rt = 0.0
    for _ in range(100):
        curve = random_spline_curve(group, rng)
        rep = roundtrip_report(group, curve, steps=96, n_samples=5)
        assert rep.passed
        worst_rt = max(worst_rt, rep.extras["worst_err"])
    ident = group.identity(1).element
    worst_pr = 0.0
    for _ in range(100):
        ga = GroupCurve(group, (0.0, 1.0),
                        ((ident, random_algebra_element(group, rng, 0.1),
                          random_algebra_element(group, rng, 0.06)),))
        gb = GroupCurve(group, (0.0, 1.0),
                        ((ident, random_algebra_element(group, rng, 0.1)),))
        rep = product_rule_report(group, ga, gb, ts=[0.2, 0.6, 0.9])
        assert rep.passed
        worst_pr = max(worst_pr, rep.extras["worst_err"])
    elapsed = time.time() - t0
    ok = worst_rt <= 1e-6 and worst_pr <= 1e-8
    _report(9, ok,
            f"100 trajectory roundtrips worst {worst_rt:.3g} <= 1e-6; "
            f"100 product-rule instances worst {worst_pr:.3g} <= 1e-8",
            elapsed, 60)


def test_criterion_10_complexification_glueing():
    t0 = time.time()
    atlas = circle_atlas(3)
    ca = extend_transitions(atlas, 0.1)
    cert = certify_cocycles(ca, tol=1e-9)
    ca2 = extend_transitions(atlas, 0.05)
    uni = uniqueness_biholomorphism(ca, ca2)
    ann = annulus_consistency(ca)
    control = certify_cocycles(perturb_transition(ca, 0, 1, 1e-6), tol=1e-9)
    elapsed = time.time() - t0
    ok = (cert.passed and cert.extras["triples_checked"] == 6
          and uni.passed and ann.passed and not control.passed)
    _report(10, ok,
            f"3-chart circle: cocycles+inverses at 1e-9 ({cert.trials} checks), "
            f"uniqueness vs annulus model {ann.extras['worst_residual']:.3g} <= 1e-8, "
            f"1e-6 perturbation rejected", elapsed, 30)
