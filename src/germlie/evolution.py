"""Evolution of germ-valued curves and the left logarithmic derivative.

``evol`` integrates the left evolution equation

    eta(0) = 1,   eta'(t) = eta(t) . gamma(t)

for a piecewise-polynomial curve gamma with Lie-algebra-germ values, by a
fourth-order commutator-corrected product integral: every step multiplies by
the exponential of

    (dt/2) (g1 + g2)  +  (sqrt(3)/12) dt^2 [g1, g2]

with g1, g2 the curve values at the two Gauss nodes of the step, so the
approximation never leaves the group.  The endpoint is ``evol(gamma) =
eta(1)``; step doubling provides the error estimate.  The endpoint tails
carry the series arithmetic only, not the step error of the integrator, so
evolution output is not certified.  Curves of one group can evolve in
lockstep: each step then exponentiates every curve's step generator in one
stack and advances every chain with one product, and each endpoint equals
its own run to the bit; ``smoothness_report`` evolves its seven curves so.
Work that does not depend on eta is batched: per block of steps the step
generators and their exponentials' norms, per run the node certificates.

``log_derivative`` inverts the direction: for a differentiable group-valued
curve it computes gamma(t)^{-1} . gamma'(t) segmentwise by series inversion
and the formal parameter derivative.  Round-trip and finite-difference
smoothness reports quantify how faithfully the pair behaves like the chart
and its inverse.  Infinite smoothness of the evolution map is not machine
checkable; the smoothness report states finite-difference first- and
second-order evidence only.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, StructureError
from .germgroup import GermGroupElement, GermLieGroup, _certified, _rows, random_algebra_element
from .germspace import BHolElement, _align, _fold, _stack, bond, germ_distance
from .reports import Report
from .series import SeriesStack, multiply as series_multiply

__all__ = [
    "LieCurve",
    "GroupCurve",
    "EvolutionResult",
    "evol",
    "log_derivative",
    "fit_lie_curve",
    "trajectory_log_derivative",
    "roundtrip_report",
    "group_roundtrip_report",
    "product_rule_report",
    "smoothness_report",
    "trajectory_to_csv",
    "random_spline_curve",
    "rk4_pointwise",
]

EVOL_BUDGET = 0.5 * math.log(2.0)  # admissible curve values per segment
CURVE_CONTINUITY_TOL = 1e-12
_GAUSS_OFFSET = math.sqrt(3.0) / 6.0
# evol steps per batched block: a stacked step holds about 35 KiB of node-value
# and bracket (Toeplitz) temporaries per curve, so a block caps them near
# 0.6 MiB for any step count; one stack over the 128 steps of a doubled 64-step
# run holds 4.4 MiB, past the 5 % peak_rss_mb bound of the evolution benchmark.
# A block keeps the Omega rows of all C lockstep curves (0.8 KiB a row) twice
# while reordered step by step, then once with the block's exponentials, which
# are held twice while gathered for one norms call: 0.5 MiB at most for
# smoothness_report's C = 7
_STEP_BLOCK = 16
_SPLINE_AMP = 0.15  # majorant scale of random_spline_curve's start values
_SMOOTHNESS_SCALES = (0.1, 0.05, 0.025)  # difference steps s of smoothness_report
_ORDER_WINDOW = (1.9, 2.1)  # orders smoothness_report accepts
# smoothness_report's difference-quotient changes at or below this are rounding
# noise: exactly linear charts give at most 2.6e-13, random splines 1.3e-10 and up
_ROUNDING_FLOOR = 1e-12
_ROUNDTRIP_TOL = 1e-6  # germ distance the two round-trip reports accept
_PRODUCT_RULE_TOL = 1e-8  # germ distance product_rule_report accepts
_GROUP_ROUNDTRIP_STEPS = 128  # evol steps of group_roundtrip_report
_GROUP_ROUNDTRIP_SEGMENTS = 16  # fit_lie_curve segments of group_roundtrip_report


def _element_mul(a: BHolElement, b: BHolElement) -> BHolElement:
    a, b = _align(a, b)
    return a._zip(b, series_multiply)


@dataclass(frozen=True)
class _PiecewiseCurve:
    """Piecewise polynomial on [0, 1] with germ coefficients.

    ``segments[i]`` holds the coefficient germs of the local polynomial in
    s = (t - t_i)/(t_{i+1} - t_i).  Construction bonds every coefficient to
    the common ``level`` and stacks the curve once (``germspace._stack``);
    every value is one ``germspace._fold`` over a segment's arrays.
    """

    group: GermLieGroup
    breakpoints: tuple
    segments: tuple
    level: int = field(init=False, repr=False, compare=False)
    _stacks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bp = tuple(float(t) for t in self.breakpoints)
        object.__setattr__(self, "breakpoints", bp)
        if len(bp) < 2 or abs(bp[0]) > 1e-15 or abs(bp[-1] - 1.0) > 1e-15:
            raise StructureError("breakpoints must run 0 = t_0 < ... < t_P = 1")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise StructureError("breakpoints must be strictly increasing")
        if len(self.segments) != len(bp) - 1 or not all(self.segments):
            raise StructureError("one nonempty coefficient tuple per interval required")
        level = max(c.level for seg in self.segments for c in seg)
        object.__setattr__(self, "level", level)
        stack = _stack(bond(c, level) for seg in self.segments for c in seg)
        cuts = np.cumsum([len(seg) for seg in self.segments])[:-1]
        object.__setattr__(self, "_stacks", tuple(zip(*(np.split(a, cuts) for a in stack))))

    def _locate_all(self, ts, segment=None) -> tuple:
        """Segment indices (one ``searchsorted``, or all ``segment``) and local parameters s
        of all ``ts``; :class:`StructureError` names the first t outside [0, 1]."""
        t = np.asarray(ts, dtype=float)
        outside = np.flatnonzero(~((t >= -1e-12) & (t <= 1.0 + 1e-12)))
        if outside.size:
            raise StructureError(f"curve parameter {ts[outside[0]]} outside [0, 1]")
        bp = np.asarray(self.breakpoints)
        seg = np.minimum(np.maximum(np.searchsorted(bp, t, side="right") - 1, 0),
                         len(self.segments) - 1) if segment is None else np.full(len(t), segment)
        s = np.minimum(np.maximum((t - bp[seg]) / (bp[seg + 1] - bp[seg]), 0.0), 1.0)
        return seg, s.tolist()

    def _values(self, ts, derivative: bool = False, segment=None) -> SeriesStack:
        """The values at all ``ts``, or their t-derivatives (c_0 weighted 0), as one
        stack, one ``_fold`` per segment: row ``t * anchors + a`` is anchor a at
        ``ts[t]``.  With ``segment`` every t is read on that segment's polynomial,
        so a breakpoint gives either side's end."""
        seg, s = self._locate_all(ts, segment)  # floats: numpy's array power may round s ** j
        first = self._stacks[0][0]  # (F, anchors, K, m, m)
        acc = np.empty((len(ts),) + first.shape[1:], dtype=complex)
        tail, radius = np.empty((2, len(ts), first.shape[1]))
        for i in set(seg.tolist()):
            coeffs, tails, radii = self._stacks[i]
            rows = np.flatnonzero(seg == i)
            if derivative:
                dt = self.breakpoints[i + 1] - self.breakpoints[i]
                weights = [[0.0] + [j * s[r] ** (j - 1) / dt for j in range(1, len(coeffs))]
                           for r in rows]
                rho = self.group.space.radius(self.level)  # a constant segment's derivative
                radius[rows] = np.min(radii[1:], axis=0, initial=rho)
            else:
                weights = [[s[r] ** j for j in range(len(coeffs))] for r in rows]
                radius[rows] = radii.min(axis=0)
            acc[rows], tail[rows] = _fold(coeffs, tails, weights)
        flat = (-1,) + acc.shape[2:]
        return SeriesStack(acc.reshape(flat), radius.reshape(-1), tail.reshape(-1),
                           self.group.space.space.submult_factor)

    def _element(self, stack: SeriesStack) -> BHolElement:
        return BHolElement(self.group.space, self.level, stack.coeffs, stack.radius, stack.tail)


@dataclass(frozen=True)
class LieCurve(_PiecewiseCurve):
    """Piecewise polynomial [0, 1] -> algebra germs, the input of ``evol``.

    Segment polynomials have degree at most 3.  The curve must be continuous
    at the breakpoints (coefficientwise, 1e-12) and every segment's
    coefficient-majorant sum must respect the stated norm budget, which
    bounds the value majorant for every t of the segment.
    """

    budget: float = EVOL_BUDGET

    def __post_init__(self):
        super().__post_init__()
        for seg in self.segments:
            if len(seg) > 4:
                raise StructureError("segment polynomials have degree at most 3")
            total = sum(c.norm_upper for c in seg)
            if total > self.budget:
                raise BudgetError(
                    f"curve budget violated: segment majorant sum {total:.4g} > "
                    f"{self.budget:.4g}")
        for i, t in enumerate(self.breakpoints[1:-1]):
            end, start = (self._element(self._values([t], segment=j)) for j in (i, i + 1))
            if germ_distance(end, start) > CURVE_CONTINUITY_TOL:
                raise StructureError(f"curve discontinuous at breakpoint {t}")

    @classmethod
    def constant(cls, group: GermLieGroup, xi: BHolElement):
        return cls(group, (0.0, 1.0), ((xi,),))

    def value(self, t: float) -> BHolElement:
        return self._element(self._values([t]))

    def add_scaled(self, other: "LieCurve", alpha: float,
                   budget: float | None = None) -> "LieCurve":
        """The curve t -> self(t) + alpha * other(t); breakpoints must match."""
        if self.breakpoints != other.breakpoints:
            raise StructureError("curves must share breakpoints")
        level = max(self.level, other.level)
        zero = self.group.zero(level)
        segs = [tuple(bond(a, level) + bond(b, level).scale(alpha)
                      for a, b in itertools.zip_longest(sa, sb, fillvalue=zero))
                for sa, sb in zip(self.segments, other.segments)]
        return LieCurve(self.group, self.breakpoints, tuple(segs),
                        budget if budget is not None else self.budget)


@dataclass(frozen=True)
class EvolutionResult:
    """Endpoint and trajectory of a left evolution; eta(0) is the identity."""

    endpoint: GermGroupElement
    times: tuple
    trajectory: tuple  # GermGroupElement at each node
    step_count: int
    error_estimate: float | None = None


def evol(curve: LieCurve, steps: int = 64, error_estimate: bool = True,
         keep_trajectory: bool = True) -> EvolutionResult:
    """Product-integral evolution of ``curve`` with ``steps`` uniform steps.

    ``_evol_run`` on this one curve: the Gauss-node values, the budget check
    and the step generators Omega_i are batched over blocks of 16 steps;
    each step's exponential and the product chain eta <- eta . exp(Omega_i)
    run step by step.  The trajectory nodes are certified in one batch.
    The error estimate is the coefficientwise endpoint drift against the
    run with doubled steps.  The endpoint tails leave out the step error,
    so they do not bound the distance to the exact evolution.  A value
    whose majorant leaves the curve budget mid-integration raises
    :class:`BudgetError` naming the offending t.
    """
    (endpoint,), times, snaps = _evol_run((curve,), steps, keep_trajectory)
    est = None
    if error_estimate:
        (endpoint2,), _, _ = _evol_run((curve,), 2 * steps, False)
        est = germ_distance(endpoint.element, endpoint2.element)
    traj = _certified([curve._element(s) for s in snaps]) if keep_trajectory else ()
    return EvolutionResult(endpoint, times, traj, steps, est)


def _evol_run(curves: tuple, steps: int, keep: bool):
    """The product integrals of ``curves`` (of one group) in lockstep, in
    blocks of ``_STEP_BLOCK`` steps.

    Each block's exponentials come from :func:`_block_exponentials`, as none
    depends on eta; the chain eta <- eta . exp(Omega_i) then takes one
    product per step on a (curves * anchors)-row stack.  The kernels are
    row-independent and every row keeps its own radius and exp order, so
    each endpoint equals its single-curve run, and each step its unbatched
    evaluation, to the bit.  Returns the endpoints in curve order (certified
    in one batch), the times and, with ``keep``, eta (all curves' rows) at
    every node.
    """
    if steps < 4:
        raise StructureError("steps must be at least 4")
    kappa = curves[0].group.space.space.submult_factor
    eta = _rows((c.group.identity(c.level).element for c in curves), kappa)
    anchors = len(eta.tail) // len(curves)
    snaps = [eta] if keep else []
    dt = 1.0 / steps
    for start in range(0, steps, _STEP_BLOCK):
        tm = [i * dt + 0.5 * dt for i in range(start, min(start + _STEP_BLOCK, steps))]
        exps = _block_exponentials(curves, tm, dt, anchors, kappa)
        width = len(exps.tail) // len(tm)
        for j in range(len(tm)):
            eta = eta.mul(exps.rows(slice(j * width, (j + 1) * width)))
            if keep:
                snaps.append(eta)
        del exps  # freed before the next block's exponentials are built
    times = tuple(i * dt for i in range(steps + 1))
    ends = _certified([c._element(eta.rows(slice(k * anchors, (k + 1) * anchors)))
                       for k, c in enumerate(curves)])
    return ends, times, snaps


def _block_exponentials(curves: tuple, tm: list, dt: float, anchors: int,
                        kappa: float) -> SeriesStack:
    """exp(Omega_i) of every curve at the steps with midpoints ``tm``, their
    norms kept (one ``norms`` call), step-major: rows j C anchors ..
    (j + 1) C anchors are step j of the C curves in order.  The Gauss-node
    values (``_values``), the budget check and the Omega_i are each one
    stack operation per curve over the block; the Omega stack is prepared
    for exp once (``SeriesStack.prepare_exp``), and each step's rows make
    one ``exp`` call.  A budget violation names the first offending t of
    any curve."""
    omegas, over = [], []
    for curve in curves:
        g1, g2 = (curve._values([t + k * _GAUSS_OFFSET * dt for t in tm])
                  for k in (-1.0, 1.0))
        worst = np.max(np.maximum(g1.majorant(), g2.majorant()).reshape(len(tm), anchors),
                       axis=1)
        bad = np.flatnonzero(worst > curve.budget * (1 + 1e-9))
        if bad.size:
            over.append((bad[0], worst[bad[0]], curve.budget))
        omegas.append(g1.add(g2).scale(0.5 * dt).add(
            g1.bracket(g2).scale(math.sqrt(3.0) / 12.0 * dt * dt)))
    if over:
        i, worst, budget = min(over, key=lambda o: o[0])  # the first curve on a tie
        raise BudgetError(f"evolution budget violated at t = {tm[i]:.6g}: "
                          f"majorant {worst:.4g} > {budget:.4g}")
    # row (c T + j) anchors + a of the curve-major block is curve c, step j, anchor a
    omega = _rows(omegas, kappa).prepare_exp()
    del omegas  # the per-curve copies, before the exponentials take their room
    step0 = (np.arange(len(curves))[:, None] * len(tm) * anchors + np.arange(anchors)).ravel()
    exps = _rows([omega.rows(step0 + j * anchors).exp() for j in range(len(tm))], kappa)
    exps.norms()
    return exps


# ---------------------------------------------------------------------------
# group-valued curves and the left logarithmic derivative
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupCurve(_PiecewiseCurve):
    """Piecewise-polynomial group-valued curve with invertible values.

    Segment polynomials may have any degree; values must satisfy the
    invertibility certificate wherever they are evaluated, which is checked
    on construction at the segment endpoints and rechecked at every
    evaluation.
    """

    def __post_init__(self):
        super().__post_init__()
        for i in range(len(self.segments)):
            for t in self.breakpoints[i:i + 2]:
                GermGroupElement(self._element(self._values([t], segment=i)))

    def value(self, t: float) -> GermGroupElement:
        return GermGroupElement(self._element(self._values([t])))

    def derivative(self, t: float) -> BHolElement:
        return self._element(self._values([t], derivative=True))

    def mul(self, other: "GroupCurve") -> "GroupCurve":
        """Pointwise product curve (segment polynomials multiply, degrees add)."""
        if self.breakpoints != other.breakpoints:
            raise StructureError("curves must share breakpoints")
        segs = []
        for sa, sb in zip(self.segments, other.segments):
            out = [None] * (len(sa) + len(sb) - 1)
            for i, a in enumerate(sa):
                for j, b in enumerate(sb):
                    term = _element_mul(a, b)
                    out[i + j] = term if out[i + j] is None else out[i + j] + term
            segs.append(tuple(out))
        return GroupCurve(self.group, self.breakpoints, tuple(segs))


def log_derivative(curve: GroupCurve, t: float) -> BHolElement:
    """The left logarithmic derivative gamma(t)^{-1} . gamma'(t) at one time."""
    ginv = curve.group.inv(curve.value(t))
    return _element_mul(ginv.element, curve.derivative(t))


def fit_lie_curve(group: GermLieGroup, fn, n_segments: int = 8) -> LieCurve:
    """Cubic piecewise fit of an algebra-germ-valued function of t on [0, 1].

    Four equispaced nodes per segment determine the local cubic exactly
    (Lagrange solve in the monomial basis); analytic inputs converge at
    fourth order in the segment width.
    """
    if n_segments < 1:
        raise StructureError(f"need at least one segment, got {n_segments}")
    bp = tuple(i / n_segments for i in range(n_segments + 1))
    nodes = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
    vand_inv = np.linalg.inv(np.vander(nodes, 4, increasing=True))
    segments = []
    for i in range(n_segments):
        t0, t1 = bp[i], bp[i + 1]
        values = _align(*(fn(t0 + s * (t1 - t0)) for s in nodes))
        coeffs, tails, radii = _stack(values)
        segments.append(tuple(BHolElement(values[0].parent, values[0].level, c,
                                          radii.min(axis=0), tau)
                              for c, tau in zip(*_fold(coeffs, tails, vand_inv))))
    return LieCurve(group, bp, tuple(segments))


def trajectory_log_derivative(group: GermLieGroup, result: EvolutionResult,
                              index: int) -> BHolElement:
    """Fourth-order stencil for the left log derivative of a stored trajectory.

    Uses log(eta_i^{-1} eta_{i+k}) for k in {-2, -1, 1, 2}; interior nodes
    only.
    """
    if not 2 <= index <= len(result.trajectory) - 3:
        raise StructureError("stencil needs two trajectory nodes on each side")
    dt = result.times[1] - result.times[0]
    eta_inv = group.inv(result.trajectory[index])

    def zlog(k: int) -> BHolElement:
        return group.log_germ(group.mul(eta_inv, result.trajectory[index + k]))

    zp1, zp2 = zlog(1), zlog(2)
    zm1, zm2 = zlog(-1), zlog(-2)
    comb = zp1.scale(8.0) + zm1.scale(-8.0) + zp2.scale(-1.0) + zm2.scale(1.0)
    return comb.scale(1.0 / (12.0 * dt))


def random_spline_curve(group: GermLieGroup, rng: np.random.Generator,
                        n_segments: int = 2) -> LieCurve:
    """Continuous random cubic spline within the evolution budget."""
    bp = tuple(np.linspace(0.0, 1.0, n_segments + 1))
    segments = []
    prev_end = None
    for _ in range(n_segments):
        c0 = prev_end if prev_end is not None else \
            random_algebra_element(group, rng, _SPLINE_AMP * rng.uniform(0.3, 1.0))
        coeffs = [c0] + [random_algebra_element(group, rng,
                                                _SPLINE_AMP * rng.uniform(0.1, 0.5) / 3)
                         for _ in range(3)]
        prev_end = sum(coeffs[1:], coeffs[0])
        segments.append(tuple(coeffs))
    return LieCurve(group, bp, tuple(segments))


def rk4_pointwise(curve: LieCurve, pts, steps: int) -> np.ndarray:
    """Classical RK4 on Y' = Y A(t) at every point, batched over the points.

    The oracle for ``evol``, sharing none of its series arithmetic: each
    coefficient is evaluated at the points once, then A(t) by Horner in s.
    """
    m = curve.group.space.space.dim
    coeffs = np.zeros((len(curve.segments), 4, len(pts), m, m), dtype=complex)
    for i, seg in enumerate(curve.segments):
        for j, c in enumerate(seg):
            coeffs[i, j] = c.eval(pts)

    h = 1.0 / steps
    seg, s = curve._locate_all([i * h + d for i in range(steps) for d in (0.0, 0.5 * h, h)])

    def a_of(n):
        i, x = seg[n], s[n]
        return coeffs[i, 0] + x * (coeffs[i, 1] + x * (coeffs[i, 2] + x * coeffs[i, 3]))

    y = np.tile(np.eye(m, dtype=complex), (len(pts), 1, 1))
    for i in range(steps):
        a1, a2, a3 = (a_of(3 * i + k) for k in range(3))
        k1 = y @ a1
        k2 = (y + 0.5 * h * k1) @ a2
        k3 = (y + 0.5 * h * k2) @ a2
        k4 = (y + h * k3) @ a3
        y = y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def roundtrip_report(group: GermLieGroup, curve: LieCurve, steps: int = 128,
                     n_samples: int = 7) -> Report:
    """delta^l recovers the curve along its own evolution, sampled in (0, 1);
    inconclusive, with ``extras["reason"]``, when no sample node is left."""
    tol = _ROUNDTRIP_TOL
    rep = Report(check="log_derivative_roundtrip",
                 params={"steps": steps, "n_samples": n_samples, "tol": tol})
    result = evol(curve, steps, error_estimate=False)
    worst = 0.0
    checked = set()
    for j in range(1, n_samples + 1):
        idx = int(round(j * steps / (n_samples + 1)))
        idx = _clear_of_breakpoints(idx, steps, curve.breakpoints)
        if idx is None or idx in checked:  # a nudge can land on a node already checked
            continue
        checked.add(idx)
        recovered = trajectory_log_derivative(group, result, idx)
        target = curve.value(result.times[idx])
        err = germ_distance(recovered, target)
        worst = max(worst, err)
        if err > tol:
            rep.fail({"t": result.times[idx], "err": err})
    rep.trials = len(checked)
    rep.extras = {"worst_err": worst}
    if not checked:
        return rep.inconclusive("no sample node clear of the breakpoints")
    rep.note_margin(tol - worst)
    return rep


def _clear_of_breakpoints(idx: int, steps: int, breakpoints) -> int | None:
    """Nudge a node index so its 5-point stencil window stays inside one segment.

    Splines are continuous but generically not differentiable at the
    breakpoints, so the high-order stencil is only meaningful strictly
    inside a segment: the nearest clear node, the later one on a tie, or None.
    """
    clear = [i for i in range(2, steps - 1)
             if not any((i - 2) / steps < b < (i + 2) / steps for b in breakpoints[1:-1])]
    return min(clear, key=lambda i: (abs(i - idx), i < idx), default=None)


def group_roundtrip_report(group: GermLieGroup, gcurve: GroupCurve) -> Report:
    """evol(delta^l eta) reproduces eta(1) for a based group curve eta(0) = 1."""
    steps, n_segments, tol = _GROUP_ROUNDTRIP_STEPS, _GROUP_ROUNDTRIP_SEGMENTS, _ROUNDTRIP_TOL
    rep = Report(check="evolution_of_log_derivative",
                 params={"steps": steps, "n_segments": n_segments, "tol": tol})
    ident = group.identity(gcurve.value(0.0).level)
    if germ_distance(gcurve.value(0.0).element, ident.element) > 1e-10:
        raise StructureError("group curve must start at the identity")
    fitted = fit_lie_curve(group, lambda t: log_derivative(gcurve, t), n_segments)
    result = evol(fitted, steps, error_estimate=False, keep_trajectory=False)
    err = germ_distance(result.endpoint.element, gcurve.value(1.0).element)
    rep.trials = 1
    rep.extras = {"endpoint_err": err}
    rep.note_margin(tol - err)
    if err > tol:
        rep.fail({"err": err})
    return rep


def product_rule_report(group: GermLieGroup, ga: GroupCurve, gb: GroupCurve, ts) -> Report:
    """delta^l(gamma eta) = AD(eta^{-1}) . delta^l gamma + delta^l eta at sampled t;
    inconclusive, with ``extras["reason"]``, for an empty ``ts``."""
    tol = _PRODUCT_RULE_TOL
    rep = Report(check="log_derivative_product_rule", params={"tol": tol})
    prod = ga.mul(gb)
    worst = 0.0
    for t in ts:
        rep.trials += 1
        lhs = log_derivative(prod, t)
        eta_inv = group.inv(gb.value(t))
        conj, _ = group.adjoint(eta_inv, log_derivative(ga, t))
        rhs = conj + log_derivative(gb, t)
        err = germ_distance(lhs, rhs)
        worst = max(worst, err)
        if err > tol:
            rep.fail({"t": t, "err": err})
    rep.extras = {"worst_err": worst}
    if not rep.trials:
        return rep.inconclusive("no sample times")
    rep.note_margin(tol - worst)
    return rep


def smoothness_report(group: GermLieGroup, curve: LieCurve, direction: LieCurve,
                      steps: int = 32) -> Report:
    """Finite-difference differentiability evidence for the evolution map.

    Central difference quotients of s -> evol(curve + s * direction) in the
    identity chart converge at second order in s when the (discretized)
    evolution map is twice differentiable; the report carries the observed
    orders of the second-difference ratio test at the scales s = 0.1, 0.05,
    0.025 and fails outside [1.9, 2.1].  This is evidence, not a smoothness proof.
    Changes of the quotient at or below ``_ROUNDING_FLOOR`` are rounding noise
    and give no order (an exactly linear chart has only those); with no order
    left the report is inconclusive.  The base curve and the six curves
    curve +- s * direction evolve in lockstep, in one ``_evol_run``.
    """
    rep = Report(check="evolution_smoothness_evidence",
                 params={"scales": list(_SMOOTHNESS_SCALES), "steps": steps,
                         "order_window": list(_ORDER_WINDOW)})
    shifted = [curve.add_scaled(direction, sign * s, budget=curve.budget + abs(s) * 2.0)
               for s in _SMOOTHNESS_SCALES for sign in (1.0, -1.0)]
    (base, *moved), _, _ = _evol_run((curve, *shifted), steps, False)
    base_inv = group.inv(base)
    charts = [group.log_germ(group.mul(base_inv, m)) for m in moved]
    quotients = [(plus + minus.scale(-1.0)).scale(1.0 / (2.0 * s))
                 for s, plus, minus in zip(_SMOOTHNESS_SCALES, charts[::2], charts[1::2])]
    diffs = [germ_distance(quotients[i], quotients[i + 1])
             for i in range(len(quotients) - 1)]
    orders = []
    for i in range(len(diffs) - 1):
        if min(diffs[i], diffs[i + 1]) <= _ROUNDING_FLOOR:
            continue
        ratio_scale = _SMOOTHNESS_SCALES[i] / _SMOOTHNESS_SCALES[i + 1]
        orders.append(math.log(diffs[i] / diffs[i + 1]) / math.log(ratio_scale))
    rep.trials = len(orders)
    rep.extras = {"orders": orders, "diffs": diffs}
    if not orders:
        return rep.inconclusive("difference quotients at floating-point floor")
    lo, hi = _ORDER_WINDOW
    for o in orders:
        rep.note_margin(min(o - lo, hi - o))
        if not lo <= o <= hi:
            rep.fail({"order": o})
    return rep


def trajectory_to_csv(result: EvolutionResult, eval_points, path) -> None:
    """Rows (t, point id, re/im of every matrix entry) for external analysis."""
    pts = np.asarray(eval_points, dtype=complex)
    m = result.endpoint.parent.space.dim
    header = ["t", "point"] + [f"{part}_{r}{c}" for r in range(m) for c in range(m)
                               for part in ("re", "im")]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t, g in zip(result.times, result.trajectory):
            for p, vals in enumerate(g.eval(pts).reshape(len(pts), -1).tolist()):
                writer.writerow([repr(t), p] + [repr(x) for z in vals for x in (z.real, z.imag)])
