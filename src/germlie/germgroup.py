"""Local and global Lie structure on germs of matrix-group-valued maps.

A :class:`GermLieGroup` couples a :class:`~germlie.germspace.GermSpace` whose
coefficients are m x m matrices with a :class:`~germlie.matrixlie.MatrixLieBackend`.
Algebra germs (gl(m)-valued, :class:`~germlie.germspace.BHolElement`) carry
the truncated-BCH product ``germ_bch``; group germs
(:class:`GermGroupElement`, invertible-matrix-valued) multiply pointwise and
carry the charts

    exp_germ([eta]) = [exp o eta],      log_germ = its local inverse,

plus the pointwise adjoint action ``adjoint`` with a certified operator-norm
bound.  Invertibility of group germs is certified at construction: the
constant coefficient is invertible and the Neumann budget
``norm(c0^{-1}) * (majorant of the rest) < 1`` holds per anchor, which makes
every value on the validity balls invertible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import BudgetError, StructureError
from .germspace import BHolElement, GermSpace, _align, bond
from .matrixlie import MatrixLieBackend, bch_remainder_bound, evaluate_bch_words
from .series import SeriesStack, multiply as series_multiply, series_to_json

__all__ = [
    "GermLieGroup",
    "GermGroupElement",
    "LocalGermElement",
    "random_algebra_element",
    "random_group_element",
    "element_from_matrix_poly",
]

OMEGA1_FACTOR = 0.25  # Omega_1 budget = 0.25 * ln 2 (pairs stay inside the BCH domain)
_RANDOM_MAX_DEGREE = 3  # degree bound of the random generators' global polynomial
_RANDOM_DECAY = 0.35  # geometric decay of its coefficients


def _rows(parts, kappa: float) -> SeriesStack:
    """The rows of ``parts`` (elements or stacks), in order, as one stack whose
    coefficient norm has submultiplicativity constant ``kappa``."""
    return SeriesStack(*(np.concatenate(arrays) for arrays in
                         zip(*((p.coeffs, p.radius, p.tail) for p in parts))), kappa)


@dataclass(frozen=True)
class GermGroupElement:
    """An invertible-matrix-valued germ with its invertibility certificate.

    The Neumann margin ``cert_margin`` is computed on construction unless
    given, as :func:`_certified` gives the margins of a batch; a margin
    ``<= 0`` raises :class:`BudgetError`.
    """

    element: BHolElement
    cert_margin: float | None = None

    def __post_init__(self):
        margin = self.cert_margin
        if margin is None:
            margin = float(_invertibility_margins([self.element])[0])
        if margin <= 0:
            raise BudgetError(
                f"invertibility certificate failed: Neumann margin {margin:.3g} <= 0")
        object.__setattr__(self, "cert_margin", margin)

    @property
    def level(self) -> int:
        return self.element.level

    @property
    def parent(self) -> GermSpace:
        return self.element.parent

    def eval(self, points) -> np.ndarray:
        return self.element.eval(points)

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "certificate": {"kind": "neumann", "budget": 1.0,
                            "margin": float(self.cert_margin)},
            "reps": [series_to_json(s) for s in self.element.reps],
        }


def _invertibility_margins(elements) -> np.ndarray:
    """``1 - kappa norm(c0^{-1}) (majorant - norm(c0))`` at the worst anchor of
    each element (of one germ space), all anchors of all elements in one
    batch; -inf for an element with a singular constant coefficient."""
    space = elements[0].parent.space
    if space.kind != "matrix":  # a vector stack (anchors, m) is no batch of matrices
        return np.full(len(elements), -math.inf)
    coeffs, radius, tail = (np.concatenate([getattr(el, f) for el in elements])
                            for f in ("coeffs", "radius", "tail"))
    try:
        c0_inv = np.linalg.inv(coeffs[:, 0])
    except np.linalg.LinAlgError:
        if len(elements) == 1:
            return np.array([-math.inf])
        return np.concatenate([_invertibility_margins([el]) for el in elements])
    pw = radius[:, None] ** np.arange(coeffs.shape[1])
    centered = np.sum((space.norm(coeffs) * pw)[:, 1:], axis=1) + tail
    q = 1.0 - space.submult_factor * space.norm(c0_inv) * centered
    return q.reshape(len(elements), -1).min(axis=1)


def _certified(elements) -> tuple:
    """``GermGroupElement`` of every element, certified in one batch; the
    :class:`BudgetError` of the first element that fails."""
    margins = _invertibility_margins(elements)
    return tuple(GermGroupElement(el, float(m)) for el, m in zip(elements, margins))


@dataclass(frozen=True)
class LocalGermElement:
    """An algebra germ certified to lie inside a stated majorant budget."""

    element: BHolElement
    budget: float

    def __post_init__(self):
        m = self.element.norm_upper
        if m > self.budget:
            raise BudgetError(
                f"local-germ budget violated: majorant {m:.6g} > budget {self.budget:.6g}")

    @property
    def level(self) -> int:
        return self.element.level


@dataclass(frozen=True)
class GermLieGroup:
    """Germs of GL(m, C)-valued maps around the anchor set, with charts."""

    space: GermSpace
    backend: MatrixLieBackend = None
    inj_radius: ClassVar[float] = 0.5  # Omega_2: values within this ball of 0 keep exp injective

    def __post_init__(self):
        if self.space.space.kind != "matrix":
            raise StructureError("germ groups need matrix coefficients")
        backend = self.backend or MatrixLieBackend(self.space.space.dim)
        if backend.dim != self.space.space.dim:
            raise StructureError("backend dimension disagrees with coefficient space")
        object.__setattr__(self, "backend", backend)

    @property
    def local_budget(self) -> float:
        """The Omega_1 budget: pairs multiply inside the injectivity chart."""
        return OMEGA1_FACTOR * math.log(2.0)

    # -- elements -------------------------------------------------------------

    def identity(self, level: int = 0) -> GermGroupElement:
        return GermGroupElement(self.space.constant_element(self.backend.space.one(), level))

    def zero(self, level: int = 0) -> BHolElement:
        return self.space.zero_element(level)

    # -- local group: truncated BCH on algebra germs ---------------------------

    def germ_bch(self, x: BHolElement, y: BHolElement) -> BHolElement:
        """Truncated BCH of algebra germs, certified remainder in the tails.

        Arguments are bonded to the deeper common level first; the
        convergence budget ``majorant(x) + majorant(y) < bch_radius`` is the
        membership condition for the local product domain.
        """
        return self.bch_pairs([(x, y)])[0]

    def bch_pairs(self, pairs: list) -> list:
        """Vectorized :func:`germ_bch` over many argument pairs.

        The Dynkin word table is walked once with all anchors of all pairs
        stacked, which is what makes large property sweeps affordable.  At
        order 8 the walk makes 188 brackets and 376 products whatever the
        batch size, and gathers 4 block Toeplitz operators: each letter keeps
        its own and its transpose's (see :meth:`SeriesStack.keep_operators`),
        so letter * value runs on the first and value * letter on the second.
        """
        order = self.backend.bch_order
        n_anchors = len(self.space.anchors)
        prepped = []
        for x, y in pairs:
            xb, yb = _align(x, y)
            s = xb.norm_upper + yb.norm_upper
            if s >= self.backend.bch_radius:
                raise BudgetError(
                    f"local product budget violated: majorant sum {s:.6g} >= "
                    f"{self.backend.bch_radius:.6g}")
            prepped.append((xb, yb, bch_remainder_bound(s, order)))
        if not prepped:
            return []
        xs, ys = (_rows((p[k] for p in prepped), self.space.space.submult_factor).keep_operators()
                  for k in (0, 1))
        if np.array_equal(xs.radius, ys.radius):  # x, y on one level: every product of the
            ys.radius = xs.radius                 # walk finds one radius array by identity
        zs = evaluate_bch_words(xs, ys, order, SeriesStack.bracket)
        tails = zs.tail + np.repeat([rem for _, _, rem in prepped], n_anchors)
        cuts = (slice(i * n_anchors, (i + 1) * n_anchors) for i in range(len(prepped)))
        return [BHolElement(self.space, xb.level, zs.coeffs[c], zs.radius[c], tails[c])
                for (xb, _, _), c in zip(prepped, cuts)]

    # -- charts -----------------------------------------------------------------

    def _bond_deeper(self, el: BHolElement, make):
        """``make(bond(el, lvl))`` at the first level from ``el.level`` on that
        raises no :class:`BudgetError`; else the deepest level's error.

        Restriction shrinks the centered majorant while fixing the constant
        term, so invertible-valued germs certify (and germs near 1 meet the
        log branch budget) at some level whenever their anchor values allow it.
        """
        for lvl in range(el.level, self.space.levels):
            try:
                return make(bond(el, lvl))
            except BudgetError as exc:
                last = exc
        raise last

    def _stack(self, el: BHolElement) -> SeriesStack:
        return SeriesStack(el.coeffs, el.radius, el.tail, self.space.space.submult_factor)

    def _on_stack(self, el: BHolElement, op) -> BHolElement:
        """Apply a :class:`SeriesStack` method to every anchor's series at once."""
        out = op(self._stack(el))
        return BHolElement(self.space, el.level, out.coeffs, out.radius, out.tail)

    def exp_germ(self, eta: BHolElement) -> GermGroupElement:
        """Postcomposition with the exponential, all anchors in one stack."""
        return self._bond_deeper(self._on_stack(eta, SeriesStack.exp), GermGroupElement)

    def log_germ(self, gamma: GermGroupElement) -> BHolElement:
        """Local inverse of :func:`exp_germ`; bonds deeper if the branch budget needs it.

        The principal-branch budget ``majorant(gamma - 1) < 1`` must hold on
        some level's radius; germs whose values leave the branch domain
        raise :class:`BudgetError`.
        """
        return self._bond_deeper(gamma.element, lambda el: self._on_stack(el, SeriesStack.log))

    def in_injectivity_domain(self, eta: BHolElement) -> bool:
        """Certified membership in the exp-injectivity chart domain.

        Values on the anchor balls within ``inj_radius`` of zero are
        certified through the majorant, which also keeps the log branch
        budget available after exponentiation.
        """
        return eta.norm_upper < self.inj_radius

    # -- global group ------------------------------------------------------------

    def mul(self, g: GermGroupElement, h: GermGroupElement) -> GermGroupElement:
        ge, he = _align(g.element, h.element)
        return self._bond_deeper(ge._zip(he, series_multiply), GermGroupElement)

    def inv(self, g: GermGroupElement) -> GermGroupElement:
        """Pointwise inverse, all anchors in one stack; bonds deeper until it certifies."""
        return self._bond_deeper(self._on_stack(g.element, SeriesStack.invert), GermGroupElement)

    def power(self, g: GermGroupElement, n: int) -> GermGroupElement:
        if n < 1:
            raise StructureError("power expects n >= 1")
        out = g
        for _ in range(n - 1):
            out = self.mul(out, g)
        return out

    # -- adjoint action ------------------------------------------------------------

    def adjoint(self, gamma: GermGroupElement, eta: BHolElement):
        """Pointwise conjugation ``x -> gamma(x) eta(x) gamma(x)^{-1}``.

        Returns ``(AD(gamma) eta, R)`` where R is the certified bound
        ``majorant(gamma) * majorant(gamma^{-1})`` for the operator norm of
        the action at this level; ``norm_upper`` of the result is at most
        ``R * norm_upper(eta)`` by majorant arithmetic.  Both products run
        on the aligned coefficient stacks, every anchor at once.
        """
        ge, ee, gie = _align(gamma.element, eta, self.inv(gamma).element)
        out = self._on_stack(ge, lambda g: g.mul(self._stack(ee)).mul(self._stack(gie)))
        return out, ge.norm_upper * gie.norm_upper


# ---------------------------------------------------------------------------
# coherent random generators (shared by tests, demos and the CLI suites)
# ---------------------------------------------------------------------------

def element_from_matrix_poly(space: GermSpace, matrix_coeffs, level: int) -> BHolElement:
    """Element of U_level induced by one global matrix polynomial in z.

    Re-expanding the same polynomial around every anchor (binomial shift)
    guarantees the per-anchor series cohere: they represent one entire
    function restricted to U_level.
    """
    coeffs = [np.asarray(c, dtype=complex) for c in matrix_coeffs]
    deg = len(coeffs) - 1
    if deg > space.degree_bound:
        raise StructureError("generator degree exceeds the space degree bound")
    zero = space.zero_element(level)
    shifted = np.zeros_like(zero.coeffs)
    for i, a in enumerate(space.anchors):
        for k in range(deg + 1):
            for j in range(k, deg + 1):
                shifted[i, k] += math.comb(j, k) * coeffs[j] * (a ** (j - k))
    return BHolElement(space, level, shifted, zero.radius, zero.tail)


def random_algebra_element(group: GermLieGroup, rng: np.random.Generator,
                           budget: float, level: int = 1) -> BHolElement:
    """Random algebra germ with majorant norm equal to ``budget``.

    Coefficients follow one global matrix polynomial of random degree at
    most 3, the k-th coefficient damped by 0.35^k, so products of moderately
    many germs keep their degree overflow far below the working tolerances.
    """
    m = group.space.space.dim
    deg = int(rng.integers(0, _RANDOM_MAX_DEGREE + 1))
    coeffs = []
    for k in range(deg + 1):
        raw = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        coeffs.append(raw * _RANDOM_DECAY ** k)
    el = element_from_matrix_poly(group.space, coeffs, level)
    norm = el.norm_upper
    if norm <= 0:
        return el
    return el.scale(budget / norm)


def random_group_element(group: GermLieGroup, rng: np.random.Generator,
                         budget: float = 0.3, level: int = 1) -> GermGroupElement:
    """Random group germ in the identity component: exp of a random algebra germ
    (degree at most 3, decay 0.35, as :func:`random_algebra_element`)."""
    return group.exp_germ(random_algebra_element(group, rng, budget, level))
