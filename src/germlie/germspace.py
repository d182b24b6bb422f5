"""Graded neighborhood bases and the (LB)-space of germs around a compact set.

A :class:`GermSpace` fixes a finite anchor set K in C, a base radius rho_0
and a ratio r strictly below 1/(2e), and grades the neighborhoods

    U_n  =  union of the open discs of radius rho_n = rho_0 * r^n around K,

so the seminorms p_n(x) = |x| / rho_n satisfy p_n = r * p_{n+1}.  A bounded
holomorphic function on U_n (:class:`BHolElement`) is one truncated series
per anchor, stored as one coefficient stack with per-anchor radii and tails,
on which bonding (restriction, operator norm at most one) and the linear
structure act; germs identify elements across levels after bonding.

The module turns the structural facts about this scale of Banach spaces into
executable checks:

* ``family_convergence_check`` -- the absolute-convergence estimate
  ``sum_k s_k r^k <= R/(R - 2 e r) * sup`` for uniformly bounded families on
  K + B_R, valid for r < R/(2e), with an executable negative control beyond
  that budget;
* ``compact_regularity_check`` -- the ball inclusion
  ``B1(E_n) & B_delta(E_l) <= B_eps(E_{n+1})`` with the explicit
  ``delta = (1 - 2 e r) * r^{k0} * eps / 2`` where k0 truncates the majorant
  tail of a generated norm-one family below eps/2;
* ``union_glue_check`` -- gluing compatible extensions across a union of two
  anchor sets, the finite-union strategy for compact sets in charts.

Every sampled sup here (``BHolElement.sample_sup`` and the sampled sides of
the first two checks) comes from the one boundary sampler of
``TruncatedSeries.sample_sup``, ``series._boundary_sups``, run on coefficient
stacks; it rejects a sample count that is not an integer >= 1.

All checks are pure functions of their inputs plus an explicit seeded
random generator, and emit :class:`germlie.reports.Report` values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, StructureError
from .reports import Report
from .series import (
    CoefficientSpace,
    TruncatedSeries,
    _boundary_sups,
    cauchy_series,
    linear_combination,
    scalar_space,
)

__all__ = [
    "RATIO_CEILING",
    "GermSpace",
    "BHolElement",
    "bond",
    "germ_distance",
    "germs_equal",
    "factorize",
    "derivative_sups",
    "family_convergence_check",
    "unit_majorant_family",
    "combine_family",
    "batch_norm_upper",
    "compact_regularity_check",
    "in_regularity_hypothesis",
    "union_glue_check",
    "ratio_topology_spotcheck",
]

RATIO_CEILING = 1.0 / (2.0 * math.e)

GERM_EQ_TOL = 1e-9
_FAMILY_TOL = 1e-12  # slack of family_convergence_check's inequality
_COHERENCE_POINTS = 32  # circle points per overlapping anchor pair in coherence_defect
_SPOTCHECK_LEVELS = (1, 2)  # levels compared by ratio_topology_spotcheck
# largest |k ln rho| of the normalized families, so that coefficients over rho^k stay
# below ~1e304 in modulus, and below ~1e150 where the norm squares them
_POWER_SPAN = {"scalar": 700.0, "vector": 345.0, "matrix": 345.0}


@dataclass(frozen=True)
class GermSpace:
    """The graded basis (U_n) of ball neighborhoods of a finite anchor set."""

    anchors: tuple
    base_radius: float = 1.0
    ratio: float = 0.1
    levels: int = 6
    space: CoefficientSpace = field(default_factory=scalar_space)
    degree_bound: int = 12

    def __post_init__(self):
        try:
            anchors = np.atleast_1d(np.asarray(self.anchors, complex))
        except (TypeError, ValueError) as exc:
            raise StructureError(f"anchors must be complex numbers: {exc}") from None
        if anchors.ndim != 1 or not anchors.size or not np.all(np.isfinite(anchors)):
            raise StructureError("anchors must be a nonempty 1-d sequence of finite complex "
                                 f"numbers, got {self.anchors!r}")
        object.__setattr__(self, "anchors", tuple(complex(a) for a in anchors))
        if not 0.0 < self.ratio < RATIO_CEILING:
            raise BudgetError(
                f"ratio must lie strictly inside (0, 1/(2e)) = (0, {RATIO_CEILING:.6g}); "
                f"got {self.ratio}")
        if not (self.base_radius > 0 and math.isfinite(self.base_radius)):
            raise StructureError(
                f"base radius must be positive and finite, got {self.base_radius}")
        if self.levels < 2 or self.degree_bound < 0:
            raise StructureError("need at least two levels and a nonnegative degree bound, got "
                                 f"{self.levels} and {self.degree_bound}")

    def radius(self, level: int) -> float:
        if not 0 <= level < self.levels:
            raise StructureError(f"level {level} outside 0..{self.levels - 1}")
        return self.base_radius * self.ratio ** level

    def seminorm(self, level: int, x) -> float:
        return abs(complex(x)) / self.radius(level)

    def zero_element(self, level: int) -> "BHolElement":
        return self.constant_element(self.space.zero(), level)

    def constant_element(self, value, level: int) -> "BHolElement":
        rows = (len(self.anchors),)
        coeffs = np.zeros(rows + (self.degree_bound + 1,) + self.space.shape, complex)
        coeffs[:, 0] = value
        return BHolElement(self, level, coeffs, np.full(rows, self.radius(level)), np.zeros(rows))

    def element_from_coeff_lists(self, per_anchor_pairs, level: int) -> "BHolElement":
        return BHolElement.of(self, level, (
            TruncatedSeries.from_coeff_list(pairs, a, self.radius(level), self.space,
                                            self.degree_bound)
            for a, pairs in zip(self.anchors, per_anchor_pairs)))

    def sample_points(self, level: int, count: int, interior: float = 0.5) -> np.ndarray:
        """Deterministic points inside U_level, spread over all anchors."""
        rho = self.radius(level) * interior
        per = -(-count // len(self.anchors))
        i, k = np.arange(len(self.anchors))[:, None], np.arange(per)
        theta = 2 * np.pi * (k + 0.13 * (i + 1)) / per
        rr = rho * (0.35 + 0.65 * ((k * 0.618034 + 0.21 * i) % 1.0))
        return (np.asarray(self.anchors)[:, None] + rr * np.exp(1j * theta)).ravel()[:count]


@dataclass(frozen=True, eq=False)
class BHolElement:
    """A bounded holomorphic function on U_n, one truncated series per anchor.

    The series are one stack: read-only ``coeffs`` ``(anchors, N+1) +
    space.shape``, ``radius`` and ``tail`` ``(anchors,)``, row i at the
    parent's i-th anchor.  ``reps`` views them as :class:`TruncatedSeries`
    (built on first use), and ``of`` builds an element from series.  Bonding,
    ``+``, ``-`` and ``scale`` act on the stack with the arithmetic of
    ``restrict``, ``linear_combination`` and ``TruncatedSeries.scale``.  On
    overlapping anchor discs the series must agree at shared sample points --
    they represent one function.
    """

    parent: GermSpace
    level: int
    coeffs: np.ndarray
    radius: np.ndarray
    tail: np.ndarray
    _reps: tuple = field(default=None, init=False, repr=False)

    def __post_init__(self):
        sp, coeffs = self.parent, np.asarray(self.coeffs, dtype=complex)
        radius, tail = np.asarray(self.radius, dtype=float), np.asarray(self.tail, dtype=float)
        want = (len(sp.anchors),) + (coeffs.shape[1:2] or (0,)) + sp.space.shape
        if coeffs.shape != want or not radius.shape == tail.shape == want[:1]:
            raise StructureError(f"one series per anchor required, over {sp.space}; got a "
                                 f"coefficient stack of shape {coeffs.shape}")
        cap = sp.radius(self.level) * (1 + 1e-12)  # checked on lists: per-call numpy costs more
        if not all(0 < r <= cap for r in radius.tolist()):
            raise StructureError("series radius must not exceed the level radius")
        if not all(0 <= t < math.inf for t in tail.tolist()):
            raise StructureError("tail bounds must be finite and nonnegative")
        for name, value in (("coeffs", coeffs), ("radius", radius), ("tail", tail)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @classmethod
    def of(cls, parent: GermSpace, level: int, reps) -> "BHolElement":
        """The element of the series ``reps``, the i-th at the parent's i-th anchor."""
        reps = tuple(reps)
        for s, a in zip(reps, parent.anchors):
            if s.anchor != a:
                raise StructureError(f"series anchored at {s.anchor}, not at its anchor {a}")
        if len({s.degree_bound for s in reps}) != 1:
            raise StructureError("one series per anchor required, all of one degree bound")
        el = cls(parent, level, np.stack([s.coeffs for s in reps]),
                 [s.radius for s in reps], [s.tail_bound for s in reps])
        object.__setattr__(el, "_reps", reps)
        return el

    @property
    def reps(self) -> tuple:
        if self._reps is None:
            sp, n = self.parent, self.coeffs.shape[1] - 1
            object.__setattr__(self, "_reps", tuple(
                TruncatedSeries(a, n, c, r, t, sp.space) for a, c, r, t in
                zip(sp.anchors, self.coeffs, self.radius.tolist(), self.tail.tolist())))
        return self._reps

    @property
    def norm_upper(self) -> float:
        """The largest ``majorant_norm`` over the anchors, on the stack."""
        norms = self.parent.space.norm(self.coeffs)
        return float(batch_norm_upper(norms, self.tail, self.radius[:, None]))

    def sample_sup(self, n: int = 128) -> float:
        sp = self.parent
        return float(np.max(_boundary_sups(self.coeffs, sp.anchors, self.radius, n, sp.space)))

    def eval(self, points) -> np.ndarray:
        """Evaluate using, per point, the series of the nearest anchor."""
        pts = np.asarray(points, dtype=complex)
        anchors = np.asarray(self.parent.anchors)
        pick = np.argmin(np.abs(pts[..., None] - anchors), axis=-1)
        out = np.zeros(pick.shape + self.parent.space.shape, dtype=complex)
        for i in range(len(anchors)):
            mask = pick == i
            if np.any(mask):
                out[mask] = self.reps[i].eval(pts[mask])
        return out

    def coherence_defect(self) -> float:
        """Largest disagreement of per-anchor series at shared interior points."""
        theta = 2 * np.pi * np.arange(_COHERENCE_POINTS) / _COHERENCE_POINTS
        worst, anchors, rad = 0.0, self.parent.anchors, self.radius.tolist()
        for i, j in itertools.combinations(range(len(anchors)), 2):
            a, b = complex(anchors[i]), complex(anchors[j])
            gap = abs(b - a)
            if gap >= rad[i] + rad[j]:
                continue
            pts = 0.5 * (a + b) + 0.25 * (rad[i] + rad[j] - gap) * 0.5 * np.exp(1j * theta)
            keep = (np.abs(pts - a) < rad[i]) & (np.abs(pts - b) < rad[j])
            if np.any(keep):
                diff = self.reps[i].eval(pts[keep]) - self.reps[j].eval(pts[keep])
                worst = max(worst, float(np.max(self.parent.space.norm(diff))))
        return worst

    # algebra (levelwise, pointwise)
    def _zip(self, other, fn):
        if self.parent != other.parent:
            raise StructureError("elements live on different germ spaces")
        if self.level != other.level:
            raise StructureError("bond to a common level first")
        return BHolElement.of(self.parent, self.level,
                              tuple(fn(a, b) for a, b in zip(self.reps, other.reps)))

    def _combine(self, other, beta: float):
        """``self + beta * other`` as ``linear_combination`` forms it per anchor: on
        the series if the checks fail or degree bounds differ (the longer truncates)."""
        if (self.parent, self.level, self.coeffs.shape) != \
                (other.parent, other.level, other.coeffs.shape):
            return self._zip(other, lambda a, b: linear_combination(a, b, 1.0, beta))
        # complex(1.0) * as in linear_combination: it can turn a -0.0 into 0.0
        coeffs = complex(1.0) * self.coeffs + complex(beta) * other.coeffs
        return BHolElement(self.parent, self.level, coeffs, np.minimum(self.radius, other.radius),
                           self.tail + abs(beta) * other.tail)

    def __add__(self, other):
        return self._combine(other, 1.0)

    def __sub__(self, other):
        return self._combine(other, -1.0)

    def scale(self, alpha):
        return BHolElement(self.parent, self.level, self.coeffs * complex(alpha), self.radius,
                           abs(complex(alpha)) * self.tail)


def bond(e: BHolElement, level: int) -> BHolElement:
    """Restriction to a deeper level U_level; norm_upper never increases."""
    if level < e.level:
        raise StructureError(f"cannot bond upward: {e.level} -> {level}")
    if level == e.level:
        return e
    return BHolElement(e.parent, level, e.coeffs, np.minimum(e.parent.radius(level), e.radius),
                       e.tail)


def _align(*elements) -> tuple:
    """The elements bonded to the deepest of their levels, where they act pointwise."""
    level = max(e.level for e in elements)
    return tuple(bond(e, level) for e in elements)


def germ_distance(x, y) -> float:
    """Coefficientwise distance after bonding to the deeper of the two levels.

    Coefficients are compared in the units of the comparison level, i.e.
    the distance is the polynomial majorant ``sum_k norm(c_k - c'_k) rho^|k|``
    of the difference, maximized over anchors.  This bounds the sup-norm
    distance of the representatives on U_level, which is the sense in which
    two germs are one germ.  Germs over different germ spaces (for example
    different anchor sets) raise :class:`StructureError`.
    """
    ex, ey = _align(x, y)
    diff = ex - ey  # its norm_upper without the tails is the largest poly_majorant
    return BHolElement(diff.parent, diff.level, diff.coeffs, diff.radius,
                       np.zeros_like(diff.tail)).norm_upper


def germs_equal(x, y) -> bool:
    return germ_distance(x, y) <= GERM_EQ_TOL


# ---------------------------------------------------------------------------
# factorization through the Banach step (Cauchy coefficient recovery)
# ---------------------------------------------------------------------------

def factorize(space: GermSpace, f, level: int) -> BHolElement:
    """Represent a bounded holomorphic evaluator on U_level per anchor.

    Each anchor's series is :func:`~germlie.series.cauchy_series` of f at
    rho_level: valid on 0.64 * rho_level with a data-driven tail, and
    rejected by the extractor's guards unless f is boundedly holomorphic on
    the ball.  f takes a 1-d complex array of points and returns its values
    with the points on the leading axis, shape ``(points,) +
    space.space.shape``; a scalar return is a constant.  Each anchor costs
    three calls of f.
    """
    rho = space.radius(level)
    return BHolElement.of(space, level, (cauchy_series(f, a, rho, space.degree_bound, space.space)
                                         for a in space.anchors))


# ---------------------------------------------------------------------------
# derivative sups and the family convergence estimate
# ---------------------------------------------------------------------------

def _stack(family) -> tuple:
    """Coefficients ``(members, anchors, N+1) + shape``, tails and radii
    ``(members, anchors)`` of elements over one coefficient space and degree
    bound N; :class:`StructureError` otherwise, as cutting members to the
    lowest bound would drop their higher coefficients from every bound."""
    family = list(family)
    if not family or len({(el.coeffs.shape, el.parent.space) for el in family}) > 1:
        raise StructureError("family must be nonempty, its members sharing one "
                             "degree bound, coefficient space and anchor count")
    return tuple(np.stack([getattr(el, name) for el in family])
                 for name in ("coeffs", "tail", "radius"))


def _fold(coeffs, tails, weights) -> tuple:
    """``sum_f weights[t, f] * coeffs[f]`` and tails ``sum_f |weights[t, f]| tails[f]``
    for weights of shape ``(T, F)``, folded left as ``scale`` and ``+`` do, so
    each row t equals that element to the bit; radii are the caller's."""
    w = np.asarray(weights, dtype=complex).T
    mag = np.abs(w).reshape(w.shape + (1,) * (tails.ndim - 1))
    w = w.reshape(w.shape + (1,) * (coeffs.ndim - 1))
    acc, tail = coeffs[0] * w[0], tails[0] * mag[0]
    for f in range(1, len(coeffs)):
        acc = acc + coeffs[f] * w[f]
        tail = tail + tails[f] * mag[f]
    return acc, tail


def _check_powers(rho: float, n: int, where: str, span: float) -> None:
    """:class:`StructureError` unless rho^k and rho^-k stay within e^span for k = 0..n, so
    that neither rho^k underflows to 0 nor coefficients over rho^k overflow to inf."""
    if rho > 0 and n * abs(math.log(rho)) > span:
        raise StructureError(f"{where}: the powers of radius {rho:.6g} up to the degree bound "
                             f"{n} leave the float range; lower the degree bound")


def _sups(stack, space: CoefficientSpace, rho: float = 1.0) -> np.ndarray:
    n = stack[0].shape[2] - 1
    _check_powers(rho, n, "normalized sups", _POWER_SPAN["scalar"])
    return np.max(space.norm(stack[0]) * rho ** np.arange(n + 1), axis=(0, 1))


def derivative_sups(family, normalized_radius: float = 1.0) -> np.ndarray:
    """s_k = sup over the family and anchors of norm(c_k).

    With ``normalized_radius`` = rho the coefficients are rescaled to
    ``norm(c_k) * rho^k``, i.e. read in the unit-ball coordinates of the
    level whose radius is rho.  The members must share one degree bound.
    """
    family = list(family)
    return _sups(_stack(family), family[0].parent.space, normalized_radius)


def _family_tail_remainder(stack, q: float) -> float:
    """Certified bound for sum_{k > N} s_k * r^k coming from the tail bounds.

    A tail function bounded by tau on the radius-rho ball has k-th
    normalized coefficient at most tau (Cauchy estimate), so the remainder
    is at most tau_max * q^{N+1} / (1 - q) with q = r / rho < 1, for the
    ``_stack`` of a family.
    """
    tau, n = float(np.max(stack[1])), stack[0].shape[2] - 1
    if q >= 1.0:
        return math.inf if tau > 0 else 0.0
    return tau * q ** (n + 1) / (1.0 - q)


def family_convergence_check(family, R: float, r: float,
                             enforce_ratio: bool = True,
                             sup_samples: int = 512) -> Report:
    """Check ``sum_k s_k r^k <= R/(R - 2 e r) * sup`` for a bounded family.

    ``family`` is a list of :class:`BHolElement` whose series all have
    radius R around their anchors.  The left side carries a certified
    remainder for the invisible part beyond the degree bound; the right side
    uses the sampled sup (a lower bound for the true sup), so a pass is
    meaningful and not an artifact of majorant slack.

    For ``r >= R/(2e)`` the estimate has no content; with ``enforce_ratio``
    the check raises :class:`BudgetError`, otherwise it evaluates the raw
    inequality and reports the (expected) failure.  ``R <= 0``, ``r < 0``,
    members with different degree bounds and a ``sup_samples`` that is not an
    integer >= 1 raise :class:`StructureError`.
    """
    family = list(family)
    params = {"R": R, "r": r, "family_size": len(family)}
    if not (R > 0 and r >= 0):
        raise StructureError(f"family convergence needs R > 0 and r >= 0, got R = {R}, r = {r}")
    if enforce_ratio and not r < R / (2.0 * math.e):
        raise BudgetError(
            f"family convergence estimate needs r < R/(2e) = {R / (2 * math.e):.6g}, got r = {r}")
    stack, cs = _stack(family), family[0].parent.space
    s_k = _sups(stack, cs)
    lhs = float(np.sum(s_k * r ** np.arange(len(s_k))))
    lhs_rem = _family_tail_remainder(stack, r / R)
    sup = float(np.max(_boundary_sups(stack[0], [el.parent.anchors for el in family],
                                      stack[2], sup_samples, cs)))
    denom = R - 2.0 * math.e * r
    factor = R / denom if denom > 0 else -math.inf
    rhs = factor * sup
    passed = (denom > 0) and (lhs + lhs_rem <= rhs + _FAMILY_TOL)
    rep = Report(check="family_convergence", params=params, trials=1)
    rep.extras = {"lhs": lhs, "lhs_remainder": lhs_rem, "rhs": rhs,
                  "factor": factor, "sup_sampled": sup}
    rep.note_margin(rhs - lhs - lhs_rem if denom > 0 else -math.inf)
    if not passed:
        rep.fail({"lhs": lhs + lhs_rem, "rhs": rhs})
    return rep


# ---------------------------------------------------------------------------
# compact regularity (ball-inclusion criterion)
# ---------------------------------------------------------------------------

def _unit_majorant_stack(space: GermSpace, level: int, rng: np.random.Generator,
                         size: int, include_monomials: bool) -> tuple:
    """The ``_stack`` of :func:`unit_majorant_family` drawn as arrays, with no
    element built: coefficients ``(members, anchors, N+1) + shape``, zero
    tails and radii ``rho_level``, both ``(members, anchors)``.  A level whose
    powers rho^k leave the float range up to the degree bound raises
    :class:`StructureError` before any draw."""
    if not (isinstance(size, (int, np.integer)) and size >= 0):
        raise StructureError(f"unit-majorant draws need an integer size >= 0, got {size!r}")
    rho, n, cs = space.radius(level), space.degree_bound, space.space
    _check_powers(rho, n, f"level {level}", _POWER_SPAN[cs.kind])
    rows, ones = (size, len(space.anchors)), (1,) * len(cs.shape)
    counts = rng.integers(1, 5, size=rows)
    cand = rng.integers(0, n + 1, size=rows + (4,))
    raw = rng.standard_normal((2,) + rows + (n + 1,) + cs.shape)
    drawn = ((cand[..., None] == np.arange(n + 1))
             & (np.arange(4)[:, None] < counts[..., None, None])).any(axis=-2)
    # Python's float pow, as for the monomials: np.power rounds some rho**k differently
    pw = np.array([rho ** k for k in range(n + 1)]).reshape((-1,) + ones)
    coeffs = np.where(drawn.reshape(drawn.shape + ones), (raw[0] + 1j * raw[1]) / pw, 0)
    m = batch_norm_upper(cs.norm(coeffs), np.zeros(coeffs.shape[:2]), rho)
    coeffs = coeffs[m > 0] * (1.0 / m[m > 0]).reshape((-1,) + (1,) * (coeffs.ndim - 1))
    if include_monomials:
        unit = cs.one() if cs.kind != "vector" else np.eye(cs.dim, dtype=complex)[0]
        mono = np.zeros((n + 1,) + coeffs.shape[1:], dtype=complex)
        for k in range(n + 1):
            mono[k, :, k] = unit / rho ** k
        coeffs = np.concatenate([mono, coeffs])
    return coeffs, np.zeros(coeffs.shape[:2]), np.full(coeffs.shape[:2], rho)


def unit_majorant_family(space: GermSpace, level: int, rng: np.random.Generator,
                         size: int = 64, include_monomials: bool = True) -> list:
    """Random polynomials scaled to unit majorant norm at ``level``.

    The monomial extreme rays ((z - a)/rho_n)^k are included by default;
    they span the extreme rays of the unit majorant ball at fixed degree and
    make the family sups s_k equal to the certified unit-ball values.  Each
    random member has, per anchor, the distinct degrees among its first 1-4
    uniform candidates, each with a complex Gaussian coefficient over rho^k.
    ``rng`` is drawn three times: the counts ``(size, anchors)``, the candidates
    ``(size, anchors, 4)``, then the normals ``(2, size, anchors, N+1) + shape``.
    """
    coeffs, tails, radii = _unit_majorant_stack(space, level, rng, size, include_monomials)
    return [BHolElement(space, level, c, r, t) for c, t, r in zip(coeffs, tails, radii)]


def combine_family(family, weights) -> tuple:
    """Coefficients ``(T, anchors, N+1) + space.shape`` and tails ``(T, anchors)``
    of ``sum_f weights[t, f] * family[f]`` for weights ``(T, len(family))``,
    each row equal to the ``scale``/``+`` fold to the bit (see ``_fold``)."""
    return _fold(*_stack(family)[:2], weights)


def batch_norm_upper(norms, tails, rho) -> np.ndarray:
    """``norm_upper`` at radius rho of every row of a batch, from coefficient
    norms ``(T, anchors, N+1)`` and tails ``(T, anchors)``; rho is a float or
    broadcasts against ``(T, anchors, 1)``."""
    pw = rho ** np.arange(norms.shape[-1])
    return np.max(np.sum(norms * pw, axis=-1) + tails, axis=-1)


def compact_regularity_check(space: GermSpace, n: int, ell: int, eps: float,
                             trials: int, rng: np.random.Generator,
                             family_size: int = 64,
                             slack: float = 1e-9) -> Report:
    """Property-test the inclusion B1(E_n) & B_delta(E_ell) <= B_eps(E_{n+1}).

    k0 is the smallest index whose certified family tail satisfies
    ``sum_{k > k0} s_k r^k <= eps/2`` over a generated norm-one test family
    at level n; then ``delta = (1 - 2 e r) * r^{k0} * eps / 2``.  Trials are
    random signed combinations of family members scaled to sit inside both
    certified balls (majorant at level n at most 1, majorant at level ell at
    most delta); a counterexample is a trial whose sampled sup at level n+1
    exceeds eps.

    All trials are drawn up front from ``rng`` (the same stream as drawing
    them one by one) and evaluated as one batch of coefficient arrays.
    """
    if not (0 <= n < ell < space.levels):
        raise StructureError(f"need 0 <= n < ell < levels, got n={n}, ell={ell}")
    if not (math.isfinite(eps) and eps > 0):
        raise StructureError(f"eps must be finite and positive, got {eps}")
    if trials < 0:
        raise StructureError("trials must be nonnegative")
    r = space.ratio
    params = {"n": n, "ell": ell, "eps": eps, "r": r, "trials": trials,
              "degree_bound": space.degree_bound}
    rep = Report(check="compact_regularity", params=params)

    stack = _unit_majorant_stack(space, n, rng, family_size, True)
    rho_n = space.radius(n)
    s_k = _sups(stack, space.space, rho_n)
    tail_rem = _family_tail_remainder(stack, r)  # normalized units: q = r
    nmax = len(s_k) - 1
    powers = r ** np.arange(nmax + 1)
    k0 = None
    for cand in range(nmax + 1):
        tail = float(np.sum(s_k[cand + 1:] * powers[cand + 1:])) + tail_rem
        if tail <= eps / 2.0:
            k0 = cand
            break
    if k0 is None:
        return rep.inconclusive(f"no k0 within degree bound {nmax}: tail stays above eps/2")
    delta = (1.0 - 2.0 * math.e * r) * r ** k0 * eps / 2.0
    rep.extras = {"delta": delta, "k0": k0}

    rho_l = space.radius(ell)
    draws = rng.standard_normal((trials, 2, len(stack[0])))
    weights = draws[:, 0] + 1j * draws[:, 1]
    weights /= np.sum(np.abs(weights), axis=1, keepdims=True)
    coeffs, tails = _fold(*stack[:2], weights)
    norms = space.space.norm(coeffs)
    maj_n = batch_norm_upper(norms, tails, rho_n)
    maj_l = batch_norm_upper(norms, tails, rho_l)
    # largest feasible scaling keeping both certified constraints and
    # staying inside the family envelope s_k
    cn = norms * rho_n ** np.arange(nmax + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        coeff_ratio = np.min(np.where(cn > 0, s_k / cn, math.inf), axis=(1, 2))
        sigma = np.minimum(np.minimum(1.0 / maj_n,
                                      np.where(maj_l > 0, delta / maj_l, math.inf)),
                           coeff_ratio)
    kept = maj_n > 0
    scale = np.where(kept, 0.999 * sigma, 0.0)
    coeffs = coeffs * scale.reshape((-1,) + (1,) * (coeffs.ndim - 1))
    tails = tails * scale[:, None]
    sampled = np.max(_boundary_sups(coeffs, space.anchors, space.radius(n + 1), 96, space.space),
                     axis=1).tolist()
    for t in np.flatnonzero(kept):
        rep.note_margin(eps - sampled[t])
        if sampled[t] > eps + slack:
            norms_t = space.space.norm(coeffs[t:t + 1])
            rep.fail({"sampled_sup": sampled[t], "eps": eps,
                      "maj_n": float(batch_norm_upper(norms_t, tails[t:t + 1], rho_n)[0]),
                      "maj_l": float(batch_norm_upper(norms_t, tails[t:t + 1], rho_l)[0])})
    rep.trials = int(np.count_nonzero(kept))
    return rep


def in_regularity_hypothesis(space: GermSpace, el: BHolElement, ell: int,
                             delta: float) -> bool:
    """Certified membership test for the compact-regularity hypothesis set.

    Outside if the sampled sup (a lower bound for the true norm) already
    violates a ball; inside if the majorants certify both constraints.
    """
    if el.sample_sup() > 1.0 or bond(el, ell).sample_sup() > delta:
        return False
    return el.norm_upper <= 1.0 and bond(el, ell).norm_upper <= delta


# ---------------------------------------------------------------------------
# finite-union glueing strategy
# ---------------------------------------------------------------------------

def union_glue_check(space_a: GermSpace, space_b: GermSpace, level: int,
                     rng: np.random.Generator, trials: int = 20,
                     tol: float = 1e-9, incompatible: bool = False) -> Report:
    """Glue per-piece extensions over K' and K'' into one element over the union.

    Test functions are random polynomials (entire, so they extend to every
    level); for each trial the check verifies that the two restrictions
    agree on overlapping anchor balls and that the glued element reproduces
    the generating polynomial on both pieces.  With ``incompatible`` the
    pieces get *different* polynomials: on overlapping covers the glue must
    flag the disagreement (an invalid input, not a library bug); disjoint
    covers glue to the product structure and always succeed.  Pieces over
    different coefficient spaces and negative ``trials`` raise
    :class:`StructureError`.
    """
    if space_a.space != space_b.space:
        raise StructureError("pieces must share the coefficient space")
    if trials < 0:
        raise StructureError(f"union_glue_check needs trials >= 0, got {trials}")
    params = {"level": level, "trials": trials, "incompatible": incompatible}
    rep = Report(check="union_glue", params=params, trials=trials)
    union_anchors = tuple(dict.fromkeys(space_a.anchors + space_b.anchors))
    union_space = GermSpace(union_anchors, space_a.base_radius, space_a.ratio,
                            space_a.levels, space_a.space, space_a.degree_bound)
    rho = union_space.radius(level)
    disjoint = all(abs(a - b) >= 2 * rho for a in space_a.anchors for b in space_b.anchors
                   if a != b) and not set(space_a.anchors) & set(space_b.anchors)

    cs = space_a.space
    unit = cs.one() if cs.kind != "vector" else np.eye(cs.dim, dtype=complex)[0]

    def poly(coeffs):
        return lambda z: np.multiply.outer(np.polyval(coeffs[::-1], z), unit)

    for t in range(trials):
        deg = int(rng.integers(0, 6))
        ca = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        cb = ca if not incompatible else ca + (rng.standard_normal(deg + 1) * 0.1 + 0.05)
        fa, fb = poly(ca), poly(cb)
        ea = factorize(space_a, fa, level)
        eb = factorize(space_b, fb, level)
        pieces = {**dict(zip(space_b.anchors, eb.reps)), **dict(zip(space_a.anchors, ea.reps))}
        glued = BHolElement.of(union_space, level, (pieces[a] for a in union_anchors))
        defect = glued.coherence_defect()
        if incompatible and not disjoint:
            if defect <= tol:
                rep.fail({"trial": t, "reason": "incompatible input not flagged",
                          "defect": defect})
            continue
        if defect > tol:
            rep.fail({"trial": t, "reason": "glue failure", "defect": defect})
            continue
        pts = union_space.sample_points(level, 40, interior=0.4)
        vals = glued.eval(pts)
        err = float(np.max(cs.norm(vals - fa(pts))))
        rep.note_margin(tol - err)
        if err > 10 * tol:
            rep.fail({"trial": t, "reason": "glued element does not reproduce input",
                      "err": err})
    return rep


# ---------------------------------------------------------------------------
# cross-basis spot check (two ratios generate equivalent gradings)
# ---------------------------------------------------------------------------

def ratio_topology_spotcheck(space_r: GermSpace, space_r2: GermSpace,
                             elements: list) -> Report:
    """Compare majorant norms of common germs across two ratio choices.

    For each element given at level 0 of the first grading, bonding into
    either grading must give finite norms with bounded mutual ratios once
    the radii nest; this spot-checks (without proving) that the limit
    topology does not depend on the chosen basis.
    """
    rep = Report(check="ratio_topology_spotcheck",
                 params={"r": space_r.ratio, "r2": space_r2.ratio,
                         "levels": list(_SPOTCHECK_LEVELS)})
    worst = 0.0
    for el in elements:
        norms = el.parent.space.norm(el.coeffs)
        for lvl in _SPOTCHECK_LEVELS:
            m1, m2 = (float(batch_norm_upper(norms, el.tail, np.minimum(rho, el.radius)[:, None]))
                      for rho in (space_r.radius(lvl), space_r2.radius(lvl)))
            if not (math.isfinite(m1) and math.isfinite(m2)) or m1 <= 0 or m2 <= 0:
                rep.fail({"level": lvl, "m1": m1, "m2": m2})
                continue
            worst = max(worst, m1 / m2, m2 / m1)
    rep.extras = {"worst_norm_ratio": worst}
    rep.trials = len(elements) * len(_SPOTCHECK_LEVELS)
    return rep
