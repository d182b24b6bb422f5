"""Experiment runner: reproducible check suites with JSON/CSV reports.

Suites are deterministic given the seed (independent substreams per check
via ``SeedSequence.spawn``, keyed by the seed and the suite, so a suite
draws the same streams alone as within ``all``); reports carry no
timestamps, so identical invocations produce byte-identical files.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
configuration error, or a check that cannot run at the given configuration
(``EvaluationError`` or ``ExtensionError``, for example a degree bound too
high for the Cauchy extraction); exit 2 prints one line to stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import complexify as cx
from . import evolution as ev
from . import germspace as gs
from .errors import BudgetError, EvaluationError, ExtensionError, StructureError
from .germgroup import GermLieGroup, random_algebra_element, random_group_element
from .germspace import GermSpace
from .matrixlie import MatrixLieBackend
from .reports import Report, dump_csv, dump_reports
from .series import matrix_space

SUITES = ("germ-space", "lie-local", "lie-global", "regularity", "complexify", "all")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="germlie",
        description="Run the germ-space / Lie-group / evolution / complexification "
                    "check suites and write JSON + CSV reports.")
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--r", type=float, default=0.1, help="grading ratio, in (0, 1/(2e))")
    p.add_argument("--rho0", type=float, default=1.0, help="base radius of the grading")
    p.add_argument("--degree", type=int, default=12, help="series degree bound")
    p.add_argument("--bch-order", type=int, default=8)
    p.add_argument("--steps", type=int, default=64, help="evolution steps")
    p.add_argument("--dim", type=int, default=2, help="matrix dimension")
    p.add_argument("--out", type=str, default="reports", help="output directory")
    return p


def _config_dict(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "out"}


def _scalar_space(args) -> GermSpace:
    return GermSpace(anchors=(0.0, 0.4 + 0.1j), base_radius=args.rho0,
                     ratio=args.r, levels=6, degree_bound=args.degree)


def _group(args) -> GermLieGroup:
    space = GermSpace(anchors=(0.0, 1.5 + 0.5j), base_radius=args.rho0,
                      ratio=args.r, levels=6, space=matrix_space(args.dim),
                      degree_bound=args.degree)
    return GermLieGroup(space, MatrixLieBackend(args.dim, args.bch_order))


def _close_worst(rep: Report, trials: int, worst: float, tol: float) -> Report:
    """Record ``trials`` and the worst error of a sweep; fail if it exceeds ``tol``."""
    rep.trials = trials
    rep.extras = {"worst_err": worst}
    rep.note_margin(tol - worst)
    if worst > tol:
        rep.fail({"worst_err": worst})
    return rep


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_germ_space(args, streams) -> tuple:
    rng_conv, rng_reg, rng_glue, rng_bond = streams
    space = _scalar_space(args)
    reports = []
    rows = []

    bondrep = Report(check="bonding_contractivity", params={"trials": args.trials})
    fam = gs.unit_majorant_family(space, 1, rng_bond, size=max(8, args.trials // 8))
    coeffs, tails = gs.combine_family(fam, rng_bond.standard_normal((args.trials, len(fam))))
    norms = space.space.norm(coeffs)
    for before, after in zip(gs.batch_norm_upper(norms, tails, space.radius(1)).tolist(),
                             gs.batch_norm_upper(norms, tails, space.radius(3)).tolist()):
        bondrep.trials += 1
        bondrep.note_margin(before - after)
        if after > before * (1 + 1e-12):
            bondrep.fail({"before": before, "after": after})
    reports.append(bondrep)

    fam0 = gs.unit_majorant_family(space, 0, rng_conv, size=24)
    conv = gs.family_convergence_check(fam0, R=args.rho0, r=args.r)
    reports.append(conv)
    # the estimate must be rejected past the ratio budget
    neg = gs.family_convergence_check(fam0, R=args.rho0, r=0.25 * args.rho0,
                                      enforce_ratio=False)
    control = Report(check="family_convergence_negative_control",
                     params=neg.params, trials=1,
                     extras={"inner_passed": not neg.failures})
    if not neg.failures:
        control.fail({"reason": "estimate unexpectedly held beyond the ratio budget"})
    reports.append(control)

    for n, ell in ((1, 3), (1, 4), (2, 4)):
        for eps in (0.5, 0.1):
            rep = gs.compact_regularity_check(space, n, ell, eps, args.trials, rng_reg)
            reports.append(rep)
            rows.append({"n": n, "ell": ell, "eps": eps,
                         "delta": rep.extras.get("delta"),
                         "k0": rep.extras.get("k0"),
                         "trials": rep.trials,
                         "failures": len(rep.failures),
                         "worst_margin": rep.worst_margin})

    space_a = GermSpace(anchors=(0.0,), base_radius=args.rho0, ratio=args.r,
                        levels=4, degree_bound=args.degree)
    space_b = GermSpace(anchors=(0.5,), base_radius=args.rho0, ratio=args.r,
                        levels=4, degree_bound=args.degree)
    reports.append(gs.union_glue_check(space_a, space_b, 1, rng_glue, trials=10))
    reports.append(gs.union_glue_check(space_a, space_b, 0, rng_glue, trials=10,
                                       incompatible=True))
    return reports, rows


def suite_lie_local(args, streams) -> tuple:
    rng_mat, rng_germ = streams
    group = _group(args)
    backend = group.backend
    reports = []

    import scipy.linalg

    rep = Report(check="bch_vs_matrix_log", params={"trials": args.trials,
                                                    "order": backend.bch_order})
    xs = np.stack([backend.random_element(rng_mat, 0.15 * rng_mat.uniform(0.5, 1))
                   for _ in range(args.trials)])
    ys = np.stack([backend.random_element(rng_mat, 0.15 * rng_mat.uniform(0.5, 1))
                   for _ in range(args.trials)])
    zs = backend.bch(xs, ys)
    worst = 0.0
    for x, y, z in zip(xs, ys, zs):
        oracle = scipy.linalg.logm(scipy.linalg.expm(x) @ scipy.linalg.expm(y))
        worst = max(worst, float(backend.norm(z - oracle)))
    reports.append(_close_worst(rep, args.trials, worst, 1e-9))

    rep2 = Report(check="germ_bch_pointwise", params={"trials": args.trials // 4})
    pts = group.space.sample_points(1, 20, interior=0.4)
    pairs = [(random_algebra_element(group, rng_germ, 0.05),
              random_algebra_element(group, rng_germ, 0.05))
             for _ in range(max(args.trials // 4, 1))]
    outs = group.bch_pairs(pairs)
    worst = 0.0
    for (x, y), z in zip(pairs, outs):
        oracle = backend.bch(x.eval(pts), y.eval(pts))
        worst = max(worst, float(np.max(backend.norm(z.eval(pts) - oracle))))
    reports.append(_close_worst(rep2, len(pairs), worst, 1e-9))

    rep3 = Report(check="local_group_axioms", params={"trials": args.trials // 8})
    n_trip = max(args.trials // 8, 1)
    trips = [(random_algebra_element(group, rng_germ, 0.04),
              random_algebra_element(group, rng_germ, 0.04),
              random_algebra_element(group, rng_germ, 0.04)) for _ in range(n_trip)]
    xy = group.bch_pairs([(a, b) for a, b, _ in trips])
    yz = group.bch_pairs([(b, c) for _, b, c in trips])
    lhs = group.bch_pairs(list(zip(xy, [c for _, _, c in trips])))
    rhs = group.bch_pairs(list(zip([a for a, _, _ in trips], yz)))
    worst = 0.0
    for le, re_ in zip(lhs, rhs):
        worst = max(worst, float(np.max(backend.norm(le.eval(pts) - re_.eval(pts)))))
    zero = group.zero(1)
    x0 = trips[0][0]
    unit_err = gs.germ_distance(group.germ_bch(x0, zero), x0)
    inv_err = group.germ_bch(x0, x0.scale(-1.0)).norm_upper
    rep3.trials = n_trip
    rep3.extras = {"assoc_worst": worst, "unit_err": unit_err, "inverse_norm": inv_err}
    rep3.note_margin(1e-8 - worst)
    if worst > 1e-8 or unit_err > 1e-12:
        rep3.fail({"assoc_worst": worst, "unit_err": unit_err})
    reports.append(rep3)
    return reports, []


def suite_lie_global(args, streams) -> tuple:
    (rng,) = streams
    group = _group(args)
    backend = group.backend
    pts = group.space.sample_points(1, 20, interior=0.4)
    reports = []

    rep = Report(check="exp_log_roundtrip", params={"trials": args.trials // 2})
    worst = 0.0
    for _ in range(max(args.trials // 2, 1)):
        eta = random_algebra_element(group, rng, 0.9 * group.inj_radius * rng.uniform(0.2, 1))
        back = group.log_germ(group.exp_germ(eta))
        worst = max(worst, gs.germ_distance(eta, back))
    reports.append(_close_worst(rep, max(args.trials // 2, 1), worst, 1e-9))

    rep2 = Report(check="exp_power_and_homomorphism", params={"trials": args.trials // 8})
    worst_p = worst_h = 0.0
    for _ in range(max(args.trials // 8, 1)):
        x = random_algebra_element(group, rng, 0.05)
        y = random_algebra_element(group, rng, 0.05)
        gx = group.exp_germ(x)
        for n in (2, 3, 4):
            pw = group.power(gx, n)
            direct = group.exp_germ(x.scale(float(n)))
            worst_p = max(worst_p, float(np.max(backend.norm(pw.eval(pts) - direct.eval(pts)))))
        lhs = group.exp_germ(group.germ_bch(x, y))
        rhs = group.mul(gx, group.exp_germ(y))
        worst_h = max(worst_h, float(np.max(backend.norm(lhs.eval(pts) - rhs.eval(pts)))))
    rep2.trials = max(args.trials // 8, 1)
    rep2.extras = {"worst_power_err": worst_p, "worst_homomorphism_err": worst_h}
    rep2.note_margin(1e-9 - max(worst_p, worst_h))
    if max(worst_p, worst_h) > 1e-9:
        rep2.fail(rep2.extras)
    reports.append(rep2)

    rep3 = Report(check="adjoint_identities", params={"trials": args.trials // 2})
    worst_c = 0.0
    worst_ratio_slack = math.inf
    for _ in range(max(args.trials // 2, 1)):
        gamma = random_group_element(group, rng, 0.25)
        eta = random_algebra_element(group, rng, 0.2 * rng.uniform(0.1, 1))
        ad_eta, bound = group.adjoint(gamma, eta)
        lhs = group.mul(group.mul(gamma, group.exp_germ(eta)), group.inv(gamma))
        rhs = group.exp_germ(ad_eta)
        worst_c = max(worst_c, float(np.max(backend.norm(lhs.eval(pts) - rhs.eval(pts)))))
        if eta.norm_upper > 0:
            worst_ratio_slack = min(worst_ratio_slack,
                                    bound - ad_eta.norm_upper / eta.norm_upper)
    rep3.trials = max(args.trials // 2, 1)
    rep3.extras = {"worst_conjugation_err": worst_c,
                   "worst_bound_slack": worst_ratio_slack}
    rep3.note_margin(min(1e-9 - worst_c, worst_ratio_slack))
    if worst_c > 1e-9 or worst_ratio_slack < 0:
        rep3.fail(rep3.extras)
    reports.append(rep3)
    return reports, []


def suite_regularity(args, streams) -> tuple:
    rng_curve, rng_dir = streams
    group = _group(args)
    reports = []

    xi = random_algebra_element(group, rng_curve, 0.3)
    const = ev.LieCurve.constant(group, xi)
    res = ev.evol(const, args.steps)
    err = gs.germ_distance(res.endpoint.element, group.exp_germ(xi).element)
    rep = Report(check="constant_curve_is_exp", params={"steps": args.steps}, trials=1,
                 extras={"err": err, "error_estimate": res.error_estimate})
    rep.note_margin(1e-8 - err)
    if err > 1e-8:
        rep.fail({"err": err})
    reports.append(rep)

    rep2 = Report(check="evolution_vs_pointwise_ode",
                  params={"curves": max(args.trials // 20, 2), "steps": args.steps})
    pts = group.space.sample_points(1, 20, interior=0.4)
    worst = 0.0
    for _ in range(max(args.trials // 20, 2)):
        curve = ev.random_spline_curve(group, rng_curve)
        germ_end = ev.evol(curve, args.steps, error_estimate=False,
                           keep_trajectory=False).endpoint.eval(pts)
        oracle = ev.rk4_pointwise(curve, pts, 10 * args.steps)
        worst = max(worst, float(np.max(np.abs(germ_end - oracle))))
    reports.append(_close_worst(rep2, max(args.trials // 20, 2), worst, 1e-6))

    curve = ev.random_spline_curve(group, rng_curve)
    reports.append(ev.roundtrip_report(group, curve, steps=max(args.steps, 128)))
    direction = ev.random_spline_curve(group, rng_dir)
    reports.append(ev.smoothness_report(group, curve, direction, steps=32))
    return reports, []


def suite_complexify(args, streams) -> tuple:
    del streams  # entirely deterministic
    reports = []
    atlas = cx.circle_atlas(3)
    ca = cx.extend_transitions(atlas, 0.1)
    reports.append(cx.certify_cocycles(ca))
    bad = cx.perturb_transition(ca, 0, 1, 1e-6)
    bad_rep = cx.certify_cocycles(bad)
    control = Report(check="cocycle_negative_control", params={"perturbation": 1e-6},
                     trials=1, extras={"inner_failures": len(bad_rep.failures)})
    if bad_rep.passed:
        control.fail({"reason": "perturbed atlas passed certification"})
    reports.append(control)
    ca2 = cx.extend_transitions(atlas, 0.05)
    reports.append(cx.uniqueness_biholomorphism(ca, ca2))
    reports.append(cx.annulus_consistency(ca))
    tan_atlas = cx.tan_chart_pair()
    reports.append(cx.certify_cocycles(cx.extend_transitions(tan_atlas, 0.12),
                                       tol=1e-9))
    return reports, []


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

_SUITE_TABLE = {
    "germ-space": (suite_germ_space, 4),
    "lie-local": (suite_lie_local, 2),
    "lie-global": (suite_lie_global, 1),
    "regularity": (suite_regularity, 2),
    "complexify": (suite_complexify, 0),
}


def run(args) -> int:
    if args.trials < 0:
        raise StructureError("--trials must be nonnegative")
    names = [s for s in SUITES if s != "all"] if args.suite == "all" else [args.suite]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = _config_dict(args)
    all_passed = True
    for name in names:
        fn, n_streams = _SUITE_TABLE[name]
        seq = np.random.SeedSequence((args.seed, list(_SUITE_TABLE).index(name)))
        streams = tuple(np.random.default_rng(s) for s in seq.spawn(max(n_streams, 1)))
        reports, rows = fn(args, streams[:n_streams] if n_streams else ())
        for rep in reports:
            rep.params = {**rep.params, "config": config}
        dump_reports(reports, out_dir / f"report_{name}.json")
        if rows:
            dump_csv(rows, out_dir / f"summary_{name}.csv")
        for rep in reports:
            print(f"[{name}] {rep.status.upper()} {rep.check} (trials={rep.trials})")
            if not rep.passed:
                all_passed = False
    return 0 if all_passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return run(args)
    except (BudgetError, StructureError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (EvaluationError, ExtensionError) as exc:
        print(f"cannot run at this configuration: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
