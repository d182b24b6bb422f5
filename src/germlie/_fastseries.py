"""Private batched kernel for matrix-valued series arithmetic.

The public series type handles one series at a time; the Lie-group hot paths
(BCH word evaluation, product-integral steps) run the same coefficient and
tail arithmetic over a stack of series at once.  A :class:`SeriesStack`
holds coefficients of shape (B, K, m, m) with per-entry radius and tail
vectors; anchors and levels stay with the caller.  Products, norms, exp,
log and the inverse run on the array kernels of :mod:`germlie.series`, so a
stack and a single series share one kernel and one tail rule per operation,
and every row of a stack equals the single-series result bit for bit.
"""

from __future__ import annotations

import numpy as np

from .series import (
    CoefficientSpace,
    TruncatedSeries,
    _cauchy_product,
    _exp_kernel,
    _invert_kernel,
    _log_kernel,
    _stack_norms,
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

    # -- norms -----------------------------------------------------------------

    def norms(self) -> np.ndarray:
        """Scaled coefficient norms (twice the spectral norm), shape (B, K)."""
        if self._norms is None:
            self._norms = _stack_norms(self.coeffs, 0.5)
        return self._norms

    def majorant(self) -> np.ndarray:
        pw = self.radius[:, None] ** np.arange(self.coeffs.shape[1])
        return np.sum(self.norms() * pw, axis=1) + self.tail

    # -- linear structure --------------------------------------------------------

    def add(self, other: "SeriesStack", alpha=1.0, beta=1.0) -> "SeriesStack":
        return SeriesStack(alpha * self.coeffs + beta * other.coeffs,
                           np.minimum(self.radius, other.radius),
                           abs(alpha) * self.tail + abs(beta) * other.tail)

    def scale(self, alpha) -> "SeriesStack":
        return SeriesStack(self.coeffs * alpha, self.radius, self.tail * abs(complex(alpha)))

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

    # -- exp, log and inverse ---------------------------------------------------------

    def exp(self) -> "SeriesStack":
        """Entrywise exp with the factorial remainder folded into the tails."""
        return SeriesStack(*_exp_kernel(self.coeffs, self.tail, self.radius, 0.5))

    def log(self) -> "SeriesStack":
        """Entrywise principal log; :class:`BudgetError` if any entry leaves the branch."""
        return SeriesStack(*_log_kernel(self.coeffs, self.tail, self.radius, 0.5))

    def invert(self) -> "SeriesStack":
        """Entrywise inverse certified by one residual product (see ``series.invert``)."""
        return SeriesStack(*_invert_kernel(self.coeffs, self.tail, self.radius, 0.5))
