"""Concrete Banach-Lie backend: gl(m, C) with a bracket-compatible norm.

The algebra norm is twice the spectral norm (see
:class:`germlie.series.CoefficientSpace`), so ``norm([x, y]) <= norm(x) *
norm(y)`` holds and the Baker-Campbell-Hausdorff series converges for
``norm(x) + norm(y) < ln 2`` with the classical geometric-majorant remainder.

``bch`` evaluates the Dynkin double sum truncated at ``bch_order``.  The
words of the formula are tabulated once per order (exact rational
coefficients accumulated per bracket word, identically vanishing words
pruned) and shared read-only; the same table drives both matrix arguments
here and series arguments in :mod:`germlie.germgroup`.  At order 8 the walk
makes 188 brackets and 376 products of series stacks, on the block Toeplitz
operators of the two letters and of their transposes, 4 gathers in all (see
:meth:`~germlie.series.SeriesStack.mul`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import ClassVar

import numpy as np
import scipy.linalg

from .errors import BudgetError, StructureError
from .series import matrix_space

__all__ = [
    "MatrixLieBackend",
    "dynkin_words",
    "evaluate_bch_words",
    "bch_tail_coefficients",
    "bch_remainder_bound",
]

BCH_RADIUS = math.log(2.0)

_MAJORANT_ORDER = 60  # tabulation depth for the -log(2 - e^t) majorant


# ---------------------------------------------------------------------------
# Dynkin word table
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def dynkin_words(order: int) -> tuple:
    """Bracket words of the Dynkin formula up to total degree ``order``.

    Returns a tuple of ``(word, coefficient)`` pairs where ``word`` is a
    tuple over {0, 1} (0 = first argument, 1 = second) naming the letters of
    the right-nested bracket ``[w1, [w2, [... wk]]]``, and ``coefficient``
    is the exact rational Dynkin weight summed over all block decompositions
    of the word, as a float.  Words whose bracket vanishes identically
    (repeated innermost pair) and words with zero net coefficient are
    dropped.
    """
    if order < 1:
        raise StructureError("bch order must be >= 1")
    acc: dict[tuple, Fraction] = {}

    def extend(word: list, weight: int, n_blocks: int, denom: int):
        if weight:
            coeff = Fraction((-1) ** (n_blocks - 1), n_blocks * weight * denom)
            key = tuple(word)
            acc[key] = acc.get(key, Fraction(0)) + coeff
        room = order - weight
        if room == 0:
            return
        for p in range(room + 1):
            for q in range(room - p + 1):
                if p + q == 0:
                    continue
                extend(word + [0] * p + [1] * q, weight + p + q,
                       n_blocks + 1, denom * math.factorial(p) * math.factorial(q))

    extend([], 0, 0, 1)
    kept = []
    for word, coeff in acc.items():
        if coeff == 0:
            continue
        if len(word) >= 2 and word[-1] == word[-2]:
            continue  # innermost bracket [w, w] = 0
        kept.append((word, float(coeff)))
    kept.sort(key=lambda t: (len(t[0]), t[0]))
    return tuple(kept)


def _bracketed(word: tuple, values: dict, bracket_fn):
    """``values[word]``, first bracketing and storing its missing suffixes, innermost first."""
    if word not in values:
        values[word] = bracket_fn(values[word[:1]], _bracketed(word[1:], values, bracket_fn))
    return values[word]


def evaluate_bch_words(x, y, order: int, bracket_fn):
    """Evaluate the truncated Dynkin sum for arbitrary arguments.

    ``x`` and ``y`` only need scalar multiplication and addition (numpy
    arrays and :class:`~germlie.series.SeriesStack` both qualify);
    ``bracket_fn`` is the Lie bracket of the ambient algebra.
    """
    values: dict[tuple, object] = {(0,): x, (1,): y}
    total = None
    for word, coeff in dynkin_words(order):
        term = coeff * _bracketed(word, values, bracket_fn)
        total = term if total is None else total + term
    return total


# ---------------------------------------------------------------------------
# convergence majorant -log(2 - e^t)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def bch_tail_coefficients() -> np.ndarray:
    """Power-series coefficients a_n of -log(2 - e^t) to n = 60, computed exactly.

    The homogeneous degree-n part of the BCH series of a Banach-Lie algebra
    with bracket-compatible norm is bounded by ``a_n * (norm(x)+norm(y))^n``,
    which is the standard majorant behind convergence on ``norm(x)+norm(y) <
    ln 2``.
    """
    # g' = h with (2 - e^t) h = e^t, so h_n = 1/n! + sum_{j=1..n} h_{n-j}/j!
    # and a_n = h_{n-1}/n
    inv_fact = [Fraction(1, math.factorial(j)) for j in range(_MAJORANT_ORDER)]
    h: list[Fraction] = []
    for n in range(_MAJORANT_ORDER):
        h.append(inv_fact[n] + sum(h[n - j] * inv_fact[j] for j in range(1, n + 1)))
    return np.array([0.0] + [float(h_n / (n + 1)) for n, h_n in enumerate(h)])


def bch_remainder_bound(s: float, order: int) -> float:
    """Certified sup bound for the BCH orders above ``order`` at ``norm(x)+norm(y) = s``."""
    if s >= BCH_RADIUS:
        return math.inf
    a = bch_tail_coefficients()
    n_max = len(a) - 1
    ns = np.arange(order + 1, n_max + 1)
    head = float(np.sum(a[order + 1:] * (s ** ns)))
    # geometric comparison at t1 = 0.66; beyond it, fall back to the crude
    # ratio against the radius of convergence
    t1 = 0.66 if s < 0.66 else 0.5 * (s + BCH_RADIUS)
    g_t1 = -math.log(2.0 - math.exp(t1))
    geom = (s / t1) ** (n_max + 1) * g_t1 / (1.0 - s / t1)
    return head + geom


# ---------------------------------------------------------------------------
# the backend
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixLieBackend:
    """gl(m, C) with the scaled operator norm, exp/log charts, Ad, and BCH.

    ``bch_radius`` is the constant ln 2, the convergence budget of the scaled
    norm.
    """

    dim: int = 2
    bch_order: int = 8
    bch_radius: ClassVar[float] = BCH_RADIUS

    def __post_init__(self):
        if self.dim < 1:
            raise StructureError("matrix dimension must be positive")
        if self.bch_order < 1:
            raise StructureError("bch_order must be >= 1")

    @property
    def space(self):
        return matrix_space(self.dim)

    # -- norms and brackets --------------------------------------------------

    def norm(self, x) -> np.ndarray:
        """Twice the spectral norm; batched over leading axes."""
        sv = np.linalg.svd(np.asarray(x, dtype=complex), compute_uv=False)
        return 2.0 * sv[..., 0]

    def bracket(self, x, y):
        x = np.asarray(x, dtype=complex)
        y = np.asarray(y, dtype=complex)
        return x @ y - y @ x

    # -- BCH ------------------------------------------------------------------

    def bch(self, x, y):
        """Truncated BCH product; see :func:`bch_with_remainder`."""
        return self.bch_with_remainder(x, y)[0]

    def bch_with_remainder(self, x, y):
        """Dynkin truncation of log(exp x . exp y) plus a certified remainder bound.

        Batched over leading axes; the precondition ``norm(x) + norm(y) <
        bch_radius`` is enforced on the worst pair of the batch.
        """
        x = np.asarray(x, dtype=complex)
        y = np.asarray(y, dtype=complex)
        s = float(np.max(self.norm(x) + self.norm(y)))
        if s >= self.bch_radius:
            raise BudgetError(
                f"BCH budget violated: norm(x)+norm(y) = {s:.6g} >= bch_radius = "
                f"{self.bch_radius:.6g}")
        z = evaluate_bch_words(x, y, self.bch_order, self.bracket)
        return z, bch_remainder_bound(s, self.bch_order)

    # -- charts ---------------------------------------------------------------

    def exp(self, x):
        """Matrix exponential (scaling-and-squaring with Pade core); batched."""
        return scipy.linalg.expm(np.asarray(x, dtype=complex))

    def log(self, g):
        """Principal matrix logarithm via inverse scaling-and-squaring.

        The principal branch needs the spectrum of ``g`` off the closed
        negative real axis, 0 included.  An eigenvalue whose distance to that
        axis is at most 1e-14 times the spectral radius raises
        :class:`BudgetError`.
        """
        g = np.asarray(g, dtype=complex)
        eig = np.linalg.eigvals(g)
        dist = np.where(eig.real <= 0, np.abs(eig.imag), np.abs(eig))  # to the axis
        if np.any(dist <= 1e-14 * np.max(np.abs(eig))):
            raise BudgetError("log branch budget violated: eigenvalue on the closed "
                              "negative real axis")
        out = scipy.linalg.logm(g)
        return np.asarray(out, dtype=complex)

    def ad(self, g, x):
        """Adjoint action Ad(g).x = g x g^{-1}; batched over leading axes."""
        g = np.asarray(g, dtype=complex)
        x = np.asarray(x, dtype=complex)
        return g @ x @ np.linalg.inv(g)

    # -- random sampling helpers ----------------------------------------------

    def random_element(self, rng: np.random.Generator, norm_bound: float):
        """Random algebra element with the scaled norm equal to ``norm_bound``."""
        raw = rng.standard_normal((self.dim, self.dim)) + 1j * rng.standard_normal(
            (self.dim, self.dim))
        return raw * (norm_bound / float(self.norm(raw)))
