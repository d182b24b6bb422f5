"""Private batched kernel for matrix-valued series arithmetic.

The public series type handles one series at a time; the Lie-group hot paths
(BCH word evaluation, product-integral steps) run the same coefficient and
tail arithmetic over a stack of series at once.  A :class:`SeriesStack`
holds coefficients of shape (B, K, m, m) with per-entry radius and tail
vectors; anchors and levels stay with the caller.  Products, norms and the
exp order and remainder come from :mod:`germlie.series`, so a stack and a
single series share one Cauchy-product kernel and one tail rule.
"""

from __future__ import annotations

import numpy as np

from .series import (
    CoefficientSpace,
    TruncatedSeries,
    _cauchy_product,
    _exp_order,
    _exp_remainder,
    spectral_norms,
)


class SeriesStack:
    """A batch of degree-bounded matrix series sharing one degree bound."""

    __slots__ = ("coeffs", "radius", "tail", "_norms")

    def __init__(self, coeffs: np.ndarray, radius: np.ndarray, tail: np.ndarray):
        self.coeffs = coeffs  # (B, K, m, m)
        self.radius = radius  # (B,)
        self.tail = tail      # (B,)
        self._norms = None

    # -- conversions ---------------------------------------------------------

    @classmethod
    def from_series(cls, series: list) -> "SeriesStack":
        coeffs = np.stack([np.asarray(s.coeffs) for s in series])
        radius = np.array([s.radius for s in series], dtype=float)
        tail = np.array([s.tail_bound for s in series], dtype=float)
        return cls(coeffs, radius, tail)

    def to_series(self, anchors, space: CoefficientSpace, dim: int = 1) -> list:
        n = self.coeffs.shape[1] - 1
        return [
            TruncatedSeries(a, n, self.coeffs[i], float(self.radius[i]),
                            float(self.tail[i]), space, dim)
            for i, a in enumerate(anchors)
        ]

    @classmethod
    def identity_like(cls, other: "SeriesStack") -> "SeriesStack":
        coeffs = np.zeros_like(other.coeffs)
        m = coeffs.shape[-1]
        coeffs[:, 0] = np.eye(m)
        return cls(coeffs, other.radius.copy(), np.zeros_like(other.tail))

    # -- norms -----------------------------------------------------------------

    def norms(self) -> np.ndarray:
        """Scaled coefficient norms (twice the spectral norm), shape (B, K)."""
        if self._norms is None:
            self._norms = 2.0 * spectral_norms(self.coeffs)
        return self._norms

    def majorant_coeffs(self) -> np.ndarray:
        k = self.coeffs.shape[1]
        return self.norms() * self.radius[:, None] ** np.arange(k)

    def majorant(self) -> np.ndarray:
        return np.sum(self.majorant_coeffs(), axis=1) + self.tail

    # -- linear structure --------------------------------------------------------

    def add(self, other: "SeriesStack", alpha=1.0, beta=1.0) -> "SeriesStack":
        return SeriesStack(alpha * self.coeffs + beta * other.coeffs,
                           np.minimum(self.radius, other.radius),
                           abs(alpha) * self.tail + abs(beta) * other.tail)

    def scale(self, alpha) -> "SeriesStack":
        alpha = np.asarray(alpha)
        if alpha.ndim == 0:
            return SeriesStack(self.coeffs * alpha, self.radius,
                               self.tail * abs(complex(alpha)))
        return SeriesStack(self.coeffs * alpha[:, None, None, None], self.radius,
                           self.tail * np.abs(alpha))

    def __add__(self, other):
        if not isinstance(other, SeriesStack):
            return NotImplemented
        return self.add(other)

    def __rmul__(self, alpha):
        if np.isscalar(alpha):
            return self.scale(alpha)
        return NotImplemented

    # -- products ------------------------------------------------------------------

    def mul(self, other: "SeriesStack") -> "SeriesStack":
        radius = np.minimum(self.radius, other.radius)
        # the doubled matrix norm is 1/2-submultiplicative
        coeffs, tail = _cauchy_product(self.coeffs, other.coeffs, self.norms(), other.norms(),
                                       self.tail, other.tail, radius, 0.5)
        return SeriesStack(coeffs, radius, tail)

    def bracket(self, other: "SeriesStack") -> "SeriesStack":
        ab = self.mul(other)
        ba = other.mul(self)
        return ab.add(ba, 1.0, -1.0)

    # -- exp -------------------------------------------------------------------------

    def _rescaled(self, lam: np.ndarray) -> "SeriesStack":
        k = self.coeffs.shape[1]
        pw = lam[:, None] ** np.arange(k)
        return SeriesStack(self.coeffs * pw[:, :, None, None],
                           self.radius / lam, self.tail.copy())

    def exp(self) -> "SeriesStack":
        """Entrywise exp with the factorial remainder folded into the tails.

        Runs in the radius-normalized variable so badly scaled entries stay
        well conditioned.
        """
        qq = 0.5 * self.majorant()
        j_ord = _exp_order(float(np.max(qq)))
        base = self._rescaled(self.radius)
        one = SeriesStack.identity_like(base)
        out = one
        for j in range(j_ord, 0, -1):
            out = one.add(base.mul(out).scale(1.0 / j))
        out = out._rescaled(1.0 / self.radius)
        return SeriesStack(out.coeffs, out.radius, out.tail + _exp_remainder(qq, j_ord, 0.5))
