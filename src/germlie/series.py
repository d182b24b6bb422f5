"""Degree-bounded power series with certified tail bounds.

A :class:`TruncatedSeries` is the computational stand-in for a bounded
holomorphic map on a disc: it stores the Taylor coefficients up to a degree
bound around a complex anchor point, a validity radius, and a certified
upper bound ``tail_bound`` for the sup of everything that was dropped.  All
arithmetic (linear combinations, Cauchy products, residual-certified
inversion, entire-function composition with exp and log) propagates the tail
bound by majorant bookkeeping, so

    sampled sup  <=  true sup on the ball  <=  majorant norm

holds in exact arithmetic for all of it.  The tails of :func:`cauchy_series`
(so of ``factorize`` and ``build_transition``) are data-driven estimates that
can miss the true error (Defect 6 of ROADMAP.md).  Rounding is outside every
certificate, near 1e-15 relative: a unit-sized matrix inverse can miss the
pointwise one by 1e-15 where its tail is below that.  Direction J of
ROADMAP.md brings rounding inside.  Values are immutable; operations are pure.

Coefficients live in a :class:`CoefficientSpace`: complex scalars, vectors,
or m x m matrices.  The matrix norm is twice the spectral norm, which makes
``norm([x, y]) <= norm(x) * norm(y)`` hold exactly; this is the norm the Lie
machinery in the rest of the package relies on.

The ring arithmetic (product, exp, log, inverse) lives once, on the
row-independent batch type :class:`SeriesStack`; the Lie-group hot paths run
it over many series at once and the single-series functions on a one-row
stack, so every row of a stack equals the single-series result bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, EvaluationError, StructureError

__all__ = [
    "CoefficientSpace",
    "TruncatedSeries",
    "scalar_space",
    "vector_space",
    "matrix_space",
    "SeriesStack",
    "linear_combination",
    "multiply",
    "bracket",
    "invert",
    "series_exp",
    "series_log",
    "cauchy_coefficients",
    "cauchy_series",
    "series_to_json",
    "series_from_json",
]

_EXP_REL_TOL = 1e-14  # adaptive truncation target for exp/log remainders


# ---------------------------------------------------------------------------
# coefficient spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientSpace:
    """The target space Z of the series: scalars, vectors or square matrices.

    ``norm`` is the Euclidean norm for scalars and vectors.  For matrices it
    is twice the operator (spectral) norm, so that the norm is
    submultiplicative and compatible with the commutator bracket:
    ``norm([x, y]) <= norm(x) * norm(y)``.
    """

    kind: str  # "scalar" | "vector" | "matrix"
    dim: int = 1

    def __post_init__(self):
        if self.kind not in ("scalar", "vector", "matrix"):
            raise StructureError(f"unknown coefficient kind {self.kind!r}")
        if self.kind == "scalar" and self.dim != 1:
            raise StructureError("scalar space has dim 1")
        if self.dim < 1:
            raise StructureError("coefficient dimension must be positive")

    @property
    def shape(self) -> tuple:
        if self.kind == "scalar":
            return ()
        if self.kind == "vector":
            return (self.dim,)
        return (self.dim, self.dim)

    def norm(self, values: np.ndarray) -> np.ndarray:
        """Norms of a batch of coefficients (batch axes lead)."""
        values = np.asarray(values, dtype=complex)
        if self.kind == "scalar":
            return np.abs(values)
        if self.kind == "vector":
            return np.linalg.norm(values, axis=-1)
        return 2.0 * spectral_norms(values)

    @property
    def submult_factor(self) -> float:
        """kappa with ``norm(x y) <= kappa * norm(x) * norm(y)``.

        The doubled spectral norm is 1/2-submultiplicative; this constant
        keeps product tail bounds sharp (the identity has norm 2, so the
        naive recursion would double certified tails at every factor).
        """
        return 0.5 if self.kind == "matrix" else 1.0

    def zero(self) -> np.ndarray:
        return np.zeros(self.shape, dtype=complex)

    def one(self) -> np.ndarray:
        """Multiplicative unit (1 or the identity matrix)."""
        if self.kind == "matrix":
            return np.eye(self.dim, dtype=complex)
        if self.kind == "scalar":
            return np.asarray(1.0 + 0j)
        raise StructureError("vector coefficients have no multiplicative unit")


def scalar_space() -> CoefficientSpace:
    return CoefficientSpace("scalar", 1)


def vector_space(m: int) -> CoefficientSpace:
    return CoefficientSpace("vector", m)


def matrix_space(m: int) -> CoefficientSpace:
    return CoefficientSpace("matrix", m)


def spectral_norms(values: np.ndarray) -> np.ndarray:
    """Largest singular values over the trailing (m, m) axes; closed form for m = 2.

    For m = 2, sigma_1^2 is the larger eigenvalue of M^H M = [[alpha, beta],
    [conj(beta), delta]], (alpha + delta + hypot(alpha - delta, 2 |beta|)) / 2.
    No step cancels, also where the two singular values nearly coincide and
    the form through f^2 - 4 |det|^2, f the squared Frobenius norm, would.
    """
    m = values.shape[-1]
    if m == 1:
        return np.abs(values[..., 0, 0])
    if m == 2:
        sq = np.abs(values)
        np.square(sq, out=sq)
        alpha, delta = sq[..., 0, 0] + sq[..., 1, 0], sq[..., 0, 1] + sq[..., 1, 1]
        beta = values[..., 0, 0].conj() * values[..., 0, 1] \
            + values[..., 1, 0].conj() * values[..., 1, 1]
        return np.sqrt(0.5 * (alpha + delta + np.hypot(alpha - delta, 2.0 * np.abs(beta))))
    sv = np.linalg.svd(values, compute_uv=False)
    return sv[..., 0]


# ---------------------------------------------------------------------------
# the stack type: product, exp, log and inverse of (B, K, m, m) stacks
# ---------------------------------------------------------------------------

_TOEPLITZ_INDEX: dict[tuple[int, int], np.ndarray] = {}


def _toeplitz_index(k: int, m: int) -> np.ndarray:
    """(k*m, k*m) flat indices into k+1 stacked (m, m) blocks, the last one zero.

    Entry (d*m + s, i*m + t) points at entry (s, t) of block d - i, or into
    the zero block above the diagonal.
    """
    idx = _TOEPLITZ_INDEX.get((k, m))
    if idx is None:
        lag = np.arange(k)[:, None] - np.arange(k)[None, :]
        block = np.where(lag >= 0, lag, k)
        entry = np.arange(m * m).reshape(m, m)
        idx = (block[:, None, :, None] * m * m + entry[None, :, None, :]).reshape(k * m, k * m)
        _TOEPLITZ_INDEX[(k, m)] = idx
    return idx


def _product_tail(ma, mb, tail_a, tail_b, overflow, kappa):
    """``kappa * (M_a tau_b + M_b tau_a + tau_a tau_b + overflow)``.

    The M's are the factors' polynomial majorants at the result radius,
    ``overflow`` is the majorant mass of the exact product beyond the degree
    bound, and kappa is the submultiplicativity constant of the coefficient
    norm (1 for scalars, 1/2 for the doubled matrix norm).
    """
    return kappa * (ma * tail_b + mb * tail_a + tail_a * tail_b + overflow)


def _block_toeplitz(a):
    """(B, K*m, K*m) block lower-triangular Toeplitz matrices of a (B, K, m, m)
    stack, block (d, i) being a_{d-i} for d >= i and zero above the diagonal:
    the operator of left multiplication by a on series truncated at K - 1."""
    n_rows, k, m, _ = a.shape
    padded = np.concatenate([a, np.zeros_like(a[:, :1])], axis=1)
    return np.take(padded.reshape(n_rows, -1), _toeplitz_index(k, m), axis=1)


def _truncated_product(op_a, b):
    """Coefficients of the Cauchy products of B pairs of (B, K, m, m) stacks up
    to degree K - 1, the left factors given by their :func:`_block_toeplitz`:
    one matmul per row with b in its stored layout, (K*m, m) per row."""
    n_rows, k, m, _ = b.shape
    return np.matmul(op_a, b.reshape(n_rows, k * m, m)).reshape(n_rows, k, m, m)


def _cauchy_product(op_a, b, w_a, sum_a, suffix_b, tail_a, tail_b, kappa):
    """Truncated Cauchy products of B pairs of series with (m, m) coefficients.

    ``op_a`` is the :func:`_block_toeplitz` of the left factors and ``b`` the
    right factors, shape (B, K, m, m) (scalars are m = 1).  The majorant
    terms are taken at the common radius r: ``w_a`` (B, K) holds the left
    factors' weights norm_k r^k and ``sum_a`` (B,) their row sums, and
    ``suffix_b`` (B, K) the reversed cumulative sums of the right factors'
    weights, column j the sum of the last j + 1 (see :meth:`SeriesStack.mul`).
    The tails are (B,).  Returns the product coefficients (B, K, m, m) and
    their tails (B,); with b^T's operator and a^T as ``op_a`` and ``b`` the
    coefficients come transposed, the tails not.
    """
    k = b.shape[1]
    coeffs = _truncated_product(op_a, b)
    # overflow sum_{p+q>=k} am_p bm_q = sum_{p>=1} am_p * (sum_{q>=k-p} bm_q),
    # read off the suffix sums of bm
    overflow = (w_a[:, 1:] * suffix_b[:, : k - 1]).sum(axis=1)
    return coeffs, _product_tail(sum_a, suffix_b[:, -1], tail_a, tail_b, overflow, kappa)


def _identity_stack(like):
    one = np.zeros_like(like)
    one[:, 0] = np.eye(like.shape[-1])
    return one


def _horner(x, x_norms, tail, tops, alpha, beta, kappa):
    """S <- alpha(j) 1 + beta(j) x S for j = top - 1 .. 1 from S = alpha(top) 1,
    each row to its own top, so no row depends on the rest of the stack.

    The block Toeplitz operator of x is gathered once, and each term's
    product is one matmul of it with S as stored.  The loop runs only these
    products and updates, keeping the S that enters each term.  The tails
    follow in one pass over the stacked iterates: one :func:`spectral_norms`,
    whose cumulative sums read in reverse are the suffix sums of S's norms
    that :func:`_product_tail` needs at unit radius, the overflows of all
    terms at once, and t <- |beta(j)| * tail(x S) as a loop over (B,)
    vectors.  Every float operation keeps its operands and order, so the
    split changes no bit."""
    n_rows, k = x.shape[:2]
    op = _block_toeplitz(x)
    one = _identity_stack(x)
    s = one * np.array([alpha(t) for t in tops])[:, None, None, None]
    all_live = int(tops.min())  # every row is live while j < all_live
    terms = range(int(tops.max()) - 1, 0, -1)
    entering = []
    for j in terms:
        entering.append(s)
        c = alpha(j) * one + beta(j) * _truncated_product(op, s)
        s = c if j < all_live else np.where((tops > j)[:, None, None, None], c, s)
    suffix = (spectral_norms(np.stack(entering))[..., ::-1] / kappa).cumsum(axis=2)
    overflow = (x_norms[:, 1:] * suffix[:, :, : k - 1]).sum(axis=2)
    mx, s_tail = x_norms.sum(axis=1), np.zeros(n_rows)
    for i, j in enumerate(terms):
        t = abs(beta(j)) * _product_tail(mx, suffix[i, :, -1], tail, s_tail, overflow[i], kappa)
        s_tail = t if j < all_live else np.where(tops > j, t, s_tail)
    return s, s_tail


def _exp_order(m: float) -> int:
    target = _EXP_REL_TOL * max(1.0, math.exp(min(m, 50.0)))
    term = m
    for j in range(1, 80):
        nxt = term * m / (j + 1)
        if nxt / max(1.0 - m / (j + 3), 1e-9) < target and j >= 4:
            return j + 1
        term = nxt
    return 80


def _log_order(q: float, n: int) -> int:
    j = max(n + 1, 8)
    while q ** (j + 1) / ((j + 1) * (1.0 - q)) > _EXP_REL_TOL * max(1.0, q) and j < 400:
        j += 8
    return j


class SeriesStack:
    """A batch of B series sharing one degree bound; anchors and levels
    stay with the caller.  ``kappa`` is :attr:`CoefficientSpace.submult_factor`
    of the coefficient space, and every stack derived from this one keeps it.

    A stack keeps what it computes, each part when first needed: the
    :meth:`norms`; the powers radius^k, which a product on a shared radius
    hands on; the majorant weights w = norms * radius^k with their row sums,
    its terms as the left factor of :meth:`mul`, and with their reversed
    cumulative sums, its terms as the right factor; after
    :meth:`keep_operators` the block Toeplitz operators of itself and of its
    transpose, which :meth:`mul` uses on either side of a product; after
    :meth:`prepare_exp` (or :meth:`exp`) the row-wise half of :meth:`exp`.
    :meth:`rows` keeps those rows of all of it but the operators; every other
    derived stack starts without any of it.
    """

    __slots__ = ("coeffs", "radius", "tail", "kappa", "_norms", "_pw", "_w", "_w_sum",
                 "_suffix", "_exp_terms", "_op", "_op_t")
    _ROW_WISE = ("_norms", "_pw", "_w", "_w_sum", "_suffix")

    def __init__(self, coeffs: np.ndarray, radius: np.ndarray, tail: np.ndarray, kappa: float):
        self.coeffs = coeffs  # (B, K, m, m), scalars as 1 x 1 matrices
        self.radius = radius  # (B,)
        self.tail = tail      # (B,)
        self.kappa = kappa
        self._norms = self._pw = self._w = self._w_sum = self._suffix = None
        self._exp_terms = self._op = self._op_t = None

    @classmethod
    def from_series(cls, series: list) -> "SeriesStack":
        coeffs = np.stack([s.coeffs.reshape(-1, s.space.dim, s.space.dim) for s in series])
        radius = np.array([s.radius for s in series], dtype=float)
        tail = np.array([s.tail_bound for s in series], dtype=float)
        return cls(coeffs, radius, tail, series[0].space.submult_factor)

    def to_series(self, anchors, space: CoefficientSpace) -> list:
        n = self.coeffs.shape[1] - 1
        return [TruncatedSeries(a, n, self.coeffs[i].reshape((n + 1,) + space.shape),
                                float(self.radius[i]), float(self.tail[i]), space)
                for i, a in enumerate(anchors)]

    def rows(self, index) -> "SeriesStack":
        """The stack of the rows ``index`` selects (a slice or an index array),
        with those rows of the kept norms, majorant terms and exp terms."""
        out = SeriesStack(self.coeffs[index], self.radius[index], self.tail[index], self.kappa)
        for name in self._ROW_WISE:
            kept = getattr(self, name)
            if kept is not None:
                setattr(out, name, kept[index])
        if self._exp_terms is not None:
            out._exp_terms = tuple(a[index] for a in self._exp_terms)
        return out

    def norms(self) -> np.ndarray:
        """Coefficient norms sigma_max / kappa, shape (B, K): twice the spectral
        norm for matrices, the modulus for scalars."""
        if self._norms is None:
            self._norms = spectral_norms(self.coeffs) / self.kappa
        return self._norms

    def _powers(self) -> np.ndarray:
        if self._pw is None:
            self._pw = self.radius[:, None] ** np.arange(self.coeffs.shape[1])
        return self._pw

    def _weights(self) -> np.ndarray:
        if self._w is None:  # w keeps no norms nobody asked for: one (B, K) array, not two
            norms = spectral_norms(self.coeffs) / self.kappa if self._norms is None else self._norms
            self._w = norms * self._powers()
        return self._w

    def _left_terms(self) -> tuple:
        """The weights and their row sums, this stack's majorant terms as the
        left factor of a product."""
        w = self._weights()
        if self._w_sum is None:
            self._w_sum = w.sum(axis=1)
        return w, self._w_sum

    def _right_terms(self) -> np.ndarray:
        """The reversed cumulative sums of the weights, column j the sum of the
        last j + 1: this stack's majorant terms as the right factor."""
        if self._suffix is None:
            self._suffix = self._weights()[:, ::-1].cumsum(axis=1)
        return self._suffix

    def majorant(self) -> np.ndarray:
        return self._left_terms()[1] + self.tail

    def add(self, other: "SeriesStack") -> "SeriesStack":
        """``self + other``, tail ``tau_a + tau_b``."""
        return SeriesStack(self.coeffs + other.coeffs, np.minimum(self.radius, other.radius),
                           self.tail + other.tail, self.kappa)

    def scale(self, alpha) -> "SeriesStack":
        return SeriesStack(self.coeffs * alpha, self.radius, self.tail * abs(complex(alpha)),
                           self.kappa)

    def __add__(self, other):
        if not isinstance(other, SeriesStack):
            return NotImplemented
        return self.add(other)

    def __rmul__(self, alpha):
        if np.isscalar(alpha):
            return self.scale(alpha)
        return NotImplemented

    def keep_operators(self) -> "SeriesStack":
        """Gather and keep the block Toeplitz operators of ``self`` and of its
        transpose (every coefficient transposed); returns ``self``."""
        self._op = _block_toeplitz(self.coeffs)
        self._op_t = _block_toeplitz(self.coeffs.swapaxes(2, 3))
        return self

    def mul(self, other: "SeriesStack") -> "SeriesStack":
        """Row-wise truncated Cauchy products ``self * other``, one matmul of a
        block Toeplitz operator with a stored factor: ``self``'s kept operator
        with ``other``; else ``other``'s kept transposed operator with ``self``
        transposed, the product transposed back, as (a b)_d^T = sum_i
        b_{d-i}^T a_i^T; else a fresh gather of ``self``'s with ``other``.
        The tails do not depend on the path.  On equal radius arrays (the
        same, else of equal values) they read both factors' kept majorant
        terms, and the product shares ``self``'s radius and powers; otherwise
        the terms are computed afresh at the row-wise smaller radius, with
        the same bits."""
        radius = self.radius
        if radius is other.radius or np.array_equal(radius, other.radius):
            pw = self._pw = other._pw = self._pw if self._pw is not None else other._powers()
            (w_a, sum_a), suffix_b = self._left_terms(), other._right_terms()
        else:
            radius = np.minimum(radius, other.radius)
            pw = radius[:, None] ** np.arange(self.coeffs.shape[1])
            w_a = self.norms() * pw
            sum_a, suffix_b = w_a.sum(axis=1), (other.norms() * pw)[:, ::-1].cumsum(axis=1)
        flip = self._op is None and other._op_t is not None
        if flip:
            op, right = other._op_t, self.coeffs.swapaxes(2, 3)
        else:
            op = self._op if self._op is not None else _block_toeplitz(self.coeffs)
            right = other.coeffs
        coeffs, tail = _cauchy_product(op, right, w_a, sum_a, suffix_b,
                                       self.tail, other.tail, self.kappa)
        out = SeriesStack(coeffs.swapaxes(2, 3) if flip else coeffs, radius, tail, self.kappa)
        out._pw = pw
        return out

    def bracket(self, other: "SeriesStack") -> "SeriesStack":
        """``self * other - other * self``, tail the sum of the products' tails.
        With a ``self`` that keeps its operators, neither product gathers."""
        ab, ba = self.mul(other), other.mul(self)
        return SeriesStack(ab.coeffs - ba.coeffs, ab.radius, ab.tail + ba.tail, self.kappa)

    def prepare_exp(self) -> "SeriesStack":
        """Compute, once, and keep the row-wise half of :meth:`exp`, which
        depends on no other row: the unit-radius scaling, the norms of the
        scaled coefficients, the order and the remainder term of every row.
        Returns ``self``."""
        if self._exp_terms is None:
            kappa = self.kappa
            # the unit-radius variable keeps badly scaled rows well conditioned
            pw = self._powers()[:, :, None, None]
            x_norms = spectral_norms(self.coeffs * pw) / kappa
            q = kappa * (np.sum(x_norms, axis=1) + self.tail)
            orders = np.array([_exp_order(float(v)) for v in q])
            fact = np.array([math.factorial(j + 1) for j in orders], dtype=float)
            rem = q ** (orders + 1) / fact / (kappa * np.maximum(1.0 - q / (orders + 2), 1e-9))
            self._exp_terms = (pw, x_norms, orders, rem)
        return self

    def exp(self) -> "SeriesStack":
        """exp by S <- 1 + a S / j, j = J .. 1.  As ``norm(a^j) <= kappa^{j-1} m^j``,
        the terms above J add q^{J+1} / ((J+1)! kappa (1 - q/(J+2))) to the
        tail, q = kappa * majorant.  :func:`_horner` gathers the block Toeplitz
        matrix of a once, so each of the J terms is one matmul and one
        update; the tails of all J terms are certified after the loop, in
        one pass over the stacked iterates.  The row-wise half (the scaling,
        the norms, J and the remainder term) comes from :meth:`prepare_exp`,
        so the call takes one :func:`spectral_norms` for the iterates, plus
        one for a unless prepared, whatever J is."""
        pw, x_norms, orders, rem = self.prepare_exp()._exp_terms
        s, s_tail = _horner(self.coeffs * pw, x_norms, self.tail, orders + 1, lambda j: 1.0,
                            lambda j: 1.0 / j, self.kappa)
        return SeriesStack(s / pw, self.radius, s_tail + rem, self.kappa)

    def log(self) -> "SeriesStack":
        """Principal log by log(1 + w) = w (1 - w (1/2 - w (1/3 - ...))) to order J,
        the terms above J in the tail; :class:`BudgetError` unless
        ``majorant(a - 1) < 1`` on every row."""
        kappa = self.kappa
        pw = self._powers()[:, :, None, None]
        w = self.coeffs * pw - _identity_stack(self.coeffs)
        w_norms = spectral_norms(w) / kappa
        mw = np.sum(w_norms, axis=1) + self.tail
        if np.max(mw) >= 0.999:
            raise BudgetError(
                f"log branch budget violated: majorant(a - 1) = {np.max(mw):.4g} >= 1")
        q = kappa * mw
        orders = np.array([_log_order(float(v), self.coeffs.shape[1] - 1) for v in q])
        # the last Horner step (j = 1) is the product w S on the gathered operator
        s, s_tail = _horner(w, w_norms, self.tail, orders + 1,
                            lambda j: 1.0 / (j - 1) if j > 1 else 0.0,
                            lambda j: -1.0 if j > 1 else 1.0, kappa)
        rem = q ** (orders + 1) / (kappa * (orders + 1) * (1.0 - q))
        return SeriesStack(s / pw, self.radius, s_tail + rem, kappa)

    def invert(self) -> "SeriesStack":
        """The inverse of every row as in :func:`invert`, radii shrunk row by row."""
        coeffs, tail, radius, kappa = self.coeffs, self.tail, self.radius, self.kappa
        n_rows, k, m, _ = coeffs.shape
        try:
            a0_inv = np.linalg.inv(coeffs[:, 0])
        except np.linalg.LinAlgError:
            raise BudgetError("constant coefficient is singular") from None
        # a and b zero-extended to degree 2k - 2, so the residual keeps every
        # degree; b_d takes block row d of a's operator left of the diagonal
        ext = np.zeros((2, n_rows, 2 * k - 1, m, m), dtype=coeffs.dtype)
        ext[0, :, :k], ext[1, :, 0] = coeffs, a0_inv
        op, b = _block_toeplitz(ext[0]), ext[1]
        for d in range(1, k):
            acc = np.matmul(op[:, d * m:(d + 1) * m, :d * m], b[:, :d].reshape(n_rows, d * m, m))
            b[:, d] = -np.matmul(a0_inv, acc)
        ab, b = _truncated_product(op, b), b[:, :k].copy()
        r_norms = spectral_norms(_identity_stack(ab) - ab) / kappa
        b_norms = spectral_norms(b) / kappa
        floor = radius * 1e-6
        while True:
            pw = radius[:, None] ** np.arange(2 * k - 1)
            mb = np.sum(b_norms * pw[:, :k], axis=1)
            q = kappa * (np.sum(r_norms * pw, axis=1) + kappa * mb * tail)
            short = q >= 0.95
            if not np.any(short):
                return SeriesStack(b, radius, mb * q / (1.0 - q), kappa)
            radius = np.where(short, 0.75 * radius, radius)
            if np.any(radius < floor):
                i = int(np.argmax(radius < floor))
                raise BudgetError(
                    "Neumann budget unattainable: needs kappa*majorant(1 - a b) < 0.95, "
                    f"got {q[i]:.3g} at radius {radius[i] / 0.75:.3g} (minimum {floor[i]:.3g})")


def _powers(w, n: int, out=None) -> np.ndarray:
    """``w^0..w^n`` on a new leading axis, shape ``(n + 1,) + w.shape`` (or in ``out``,
    a view of that shape), in doubling blocks: once rows 0..m hold w^0..w^m, rows
    m+1..2m are rows 1..m times row m, one product each (about log2(n) calls in all)."""
    w = np.asarray(w, dtype=complex)
    out = np.empty((n + 1,) + w.shape, dtype=complex) if out is None else out
    out[0], out[1:2] = 1.0, w
    m = 1
    while m < n:
        np.multiply(out[1:min(m, n - m) + 1], out[m], out=out[m + 1:2 * m + 1])
        m *= 2
    return out


def _boundary_sups(coeffs, anchor, rho, n, space: CoefficientSpace) -> np.ndarray:
    """Largest value norm of each row of a coefficient stack ``(..., N+1) + shape`` at
    n evenly spaced points of |z - a| = rho, anchor and rho broadcasting against ``...``,
    with the bits of ``TruncatedSeries.eval``; StructureError unless n is an int >= 1."""
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise StructureError(f"boundary sampling needs an integer n >= 1, got {n!r}")
    *lead, k = coeffs.shape[:coeffs.ndim - len(space.shape)]
    a, theta = np.asarray(anchor, dtype=complex)[..., None], 2 * np.pi * np.arange(n) / n
    w = (a + np.asarray(rho, dtype=float)[..., None] * np.exp(1j * theta)) - a
    powers = np.empty(w.shape[:-1] + (k, n), dtype=complex)  # eval's layout in each row,
    _powers(w, k - 1, np.moveaxis(powers, -2, 0))  # as BLAS sums other strides in another order
    vals = np.matmul(powers.swapaxes(-1, -2), coeffs.reshape((*lead, k, math.prod(space.shape))))
    return np.max(space.norm(vals.reshape(vals.shape[:-1] + space.shape)), axis=-1)


def _index(k, n: int) -> int:
    """The slot of degree ``k``: an int in 0..n, else :class:`StructureError`."""
    if not isinstance(k, (int, np.integer)) or not 0 <= k <= n:
        raise StructureError(f"degree index {k!r} does not fit degree bound {n}")
    return int(k)


# ---------------------------------------------------------------------------
# the series type
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """Power series around ``anchor`` truncated at degree ``degree_bound``.

    Parameters
    ----------
    anchor:
        A complex scalar.
    degree_bound:
        Largest retained degree N.
    coeffs:
        Array of coefficients, shape ``(N+1,) + space.shape``.
    radius:
        Validity radius rho > 0 of the anchor-centered disc.
    tail_bound:
        Certified upper bound for the sup norm, on the radius-rho disc, of
        the difference between the represented function and the stored
        polynomial.  Monotone under radius shrinkage by construction.
    space:
        The coefficient space Z.
    """

    anchor: object
    degree_bound: int
    coeffs: np.ndarray
    radius: float
    tail_bound: float
    space: CoefficientSpace

    def __post_init__(self):
        n = self.degree_bound
        if n < 0:
            raise StructureError("degree_bound must be nonnegative")
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise StructureError("radius must be positive and finite")
        if not (self.tail_bound >= 0 and math.isfinite(self.tail_bound)):
            raise StructureError("tail_bound must be finite and nonnegative")
        want = (n + 1,) + self.space.shape
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.shape != want:
            raise StructureError(f"coefficient array has shape {coeffs.shape}, expected {want}")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_norm_cache", None)
        anchor = np.asarray(self.anchor, dtype=complex)
        if anchor.shape != () or not np.isfinite(anchor):
            raise StructureError(f"anchor must be a complex scalar and finite: {self.anchor!r}")
        object.__setattr__(self, "anchor", complex(anchor))

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, anchor, radius, space, degree_bound=12):
        return cls.from_coeff_list((), anchor, radius, space, degree_bound)

    @classmethod
    def constant(cls, value, anchor, radius, space, degree_bound=12):
        return cls.from_coeff_list(((0, value),), anchor, radius, space, degree_bound)

    @classmethod
    def unit(cls, anchor, radius, space, degree_bound=12):
        """The constant series with value 1 (resp. the identity matrix)."""
        return cls.constant(space.one(), anchor, radius, space, degree_bound)

    @classmethod
    def from_coeff_list(cls, pairs, anchor, radius, space, degree_bound=12):
        """Build a series from ``(degree, value)`` pairs."""
        coeffs = np.zeros((degree_bound + 1,) + space.shape, complex)
        for k, value in pairs:
            coeffs[_index(k, degree_bound)] = np.asarray(value, dtype=complex)
        return cls(anchor, degree_bound, coeffs, radius, 0.0, space)

    # -- norms --------------------------------------------------------------

    def coeff_norms(self) -> np.ndarray:
        """Norm of every stored coefficient, indexed like ``coeffs`` (cached)."""
        if self._norm_cache is None:
            object.__setattr__(self, "_norm_cache", self.space.norm(self.coeffs))
        return self._norm_cache

    def _rho(self, rho: float | None) -> float:
        """``rho``, or the validity radius when None; :class:`StructureError` if it
        is negative or NaN, :class:`BudgetError` if it exceeds the radius."""
        rho = self.radius if rho is None else float(rho)
        if not rho >= 0:
            raise StructureError(f"rho must be a non-negative radius, got {rho}")
        if rho > self.radius * (1 + 1e-12):
            raise BudgetError(f"rho={rho} exceeds validity radius {self.radius}")
        return rho

    def majorant_coeffs(self, rho: float | None = None) -> np.ndarray:
        """The scalar majorant sequence ``norm(c_k) * rho^k``."""
        return self.coeff_norms() * self._rho(rho) ** np.arange(self.degree_bound + 1)

    def poly_majorant(self, rho: float | None = None) -> float:
        """Majorant of the stored polynomial part only."""
        return float(np.sum(self.majorant_coeffs(rho)))

    def majorant_norm(self, rho: float | None = None) -> float:
        """Certified upper bound for the sup norm on the radius-rho disc."""
        return self.poly_majorant(rho) + self.tail_bound

    def sample_sup(self, rho: float | None = None, n: int = 256) -> float:
        """Lower bound for the sup norm: max of the polynomial part over boundary samples.

        By the maximum principle, n evenly spaced angles on |z - a| = rho give a
        deterministic, rapidly tight lower bound: one row of the one sampler,
        ``_boundary_sups``, so :class:`StructureError` unless n is an integer >= 1."""
        return float(_boundary_sups(self.coeffs, self.anchor, self._rho(rho), n, self.space))

    # -- evaluation ---------------------------------------------------------

    def eval(self, points) -> np.ndarray:
        """Evaluate the stored polynomial part at ``points``.

        ``points`` is a complex array of any shape; the result has the
        coefficient-space shape appended.
        """
        n, pts = self.degree_bound, np.asarray(points, dtype=complex)
        vand = _powers(pts - self.anchor, n).reshape(n + 1, -1)
        return (vand.T @ self.coeffs.reshape(n + 1, -1)).reshape(pts.shape + self.space.shape)

    # -- structural operations ---------------------------------------------

    def restrict(self, new_radius: float) -> "TruncatedSeries":
        """Shrink the validity radius.  The tail bound never increases."""
        if new_radius > self.radius * (1 + 1e-12):
            raise StructureError("restrict() cannot grow the radius")
        return TruncatedSeries(
            self.anchor, self.degree_bound, self.coeffs,
            float(min(new_radius, self.radius)), self.tail_bound, self.space,
        )

    def truncate(self, new_bound: int) -> "TruncatedSeries":
        """Lower the degree bound; dropped coefficients feed the tail bound."""
        if new_bound >= self.degree_bound:
            return self
        dropped = float(np.sum(self.majorant_coeffs()[new_bound + 1:]))
        return TruncatedSeries(self.anchor, new_bound, self.coeffs[: new_bound + 1].copy(),
                               self.radius, self.tail_bound + dropped, self.space)

    def with_tail(self, extra: float) -> "TruncatedSeries":
        if extra < 0:
            raise StructureError("tail increments must be nonnegative")
        return TruncatedSeries(self.anchor, self.degree_bound, self.coeffs,
                               self.radius, self.tail_bound + extra, self.space)

    # -- operators ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return linear_combination(self, other, 1.0, 1.0)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return linear_combination(self, other, 1.0, -1.0)

    def scale(self, alpha) -> "TruncatedSeries":
        return TruncatedSeries(self.anchor, self.degree_bound, self.coeffs * complex(alpha),
                               self.radius, abs(complex(alpha)) * self.tail_bound,
                               self.space)


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------

def _check_compatible(a: TruncatedSeries, b: TruncatedSeries):
    if a.anchor != b.anchor:
        raise StructureError(f"anchor mismatch: {a.anchor} vs {b.anchor}")
    if a.space != b.space:
        raise StructureError(f"coefficient space mismatch: {a.space} vs {b.space}")


def linear_combination(a: TruncatedSeries, b: TruncatedSeries,
                       alpha=1.0, beta=1.0) -> TruncatedSeries:
    """``alpha * a + beta * b`` with tail ``|alpha| tau_a + |beta| tau_b``."""
    _check_compatible(a, b)
    radius = min(a.radius, b.radius)
    n = min(a.degree_bound, b.degree_bound)
    a = a.truncate(n)
    b = b.truncate(n)
    coeffs = complex(alpha) * a.coeffs + complex(beta) * b.coeffs
    tail = abs(complex(alpha)) * a.tail_bound + abs(complex(beta)) * b.tail_bound
    return TruncatedSeries(a.anchor, n, coeffs, radius, tail, a.space)


def multiply(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Truncated Cauchy product (noncommutative for matrix coefficients).

    The tail bound is :func:`_product_tail` of the factors' majorants,
    tails and truncation overflow.
    """
    _check_compatible(a, b)
    if a.space.kind == "vector":
        raise StructureError("vector coefficients admit no ring product")
    if a.space.kind == "matrix" and a.space.dim != b.space.dim:
        raise StructureError("matrix dimension mismatch")
    n = min(a.degree_bound, b.degree_bound)
    return _row(a.truncate(n)).mul(_row(b.truncate(n))).to_series([a.anchor], a.space)[0]


def bracket(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Pointwise commutator ``a b - b a`` for matrix-valued series."""
    return linear_combination(multiply(a, b), multiply(b, a), 1.0, -1.0)


def _row(a: TruncatedSeries) -> SeriesStack:
    """The ring-valued series ``a`` as a one-row stack, scalars as 1 x 1
    matrices, its norms taken from ``a.coeff_norms()``."""
    k, m = a.degree_bound + 1, a.space.dim
    row = SeriesStack(a.coeffs.reshape(1, k, m, m), np.array([a.radius]),
                      np.array([a.tail_bound]), a.space.submult_factor)
    row._norms = a.coeff_norms()[None]
    return row


def _unary(a: TruncatedSeries, what: str, method) -> TruncatedSeries:
    """``method`` of :class:`SeriesStack` on ``a`` as a one-row stack."""
    if a.space.kind == "vector":
        raise StructureError(f"{what} needs a ring of coefficients")
    return method(_row(a)).to_series([a.anchor], a.space)[0]


def invert(a: TruncatedSeries) -> TruncatedSeries:
    """Pointwise inverse, certified by one residual product.

    The truncated inverse b solves ``b_0 = a_0^{-1}``,
    ``b_k = -a_0^{-1} sum_{j=1..k} a_j b_{k-j}``.  The residual r = 1 - a b
    (the polynomial product exactly to degree 2N, plus a's tail times b)
    gives q = kappa * majorant(r) and the tail majorant(b) q / (1 - q) of
    ``a^{-1} - b = b (r + r^2 + ...)``.  If q >= 0.95 the radius shrinks by
    0.75 (recorded in the result) down to 1e-6 times the input radius, then
    :class:`BudgetError`.  Like every tail here, it ignores rounding.
    """
    return _unary(a, "invert", SeriesStack.invert)


def series_exp(a: TruncatedSeries) -> TruncatedSeries:
    """exp(a) with the factorial remainder folded into the tail bound."""
    return _unary(a, "exp", SeriesStack.exp)


def series_log(a: TruncatedSeries) -> TruncatedSeries:
    """Principal log of a series near the unit; alternating Mercator series.

    The branch budget ``majorant(a - 1) < 1`` must hold on the series radius;
    callers with germ structure can bond deeper and retry.
    """
    return _unary(a, "log", SeriesStack.log)


# ---------------------------------------------------------------------------
# Cauchy-formula coefficient extraction
# ---------------------------------------------------------------------------

_QUAD_POINTS = 256  # quadrature nodes of cauchy_series
_GUARD_TOL = 1e-6  # relative slack of its three guards


def _sample(f, zs: np.ndarray) -> np.ndarray:
    """``f`` at the 1-d point array ``zs`` in one call, points on the leading
    axis; a 0-d result is a constant and is filled to ``zs.shape``.  A result
    without the points on its leading axis, or a ``TypeError``/``ValueError``
    of the call (a pointwise-only evaluator), raises :class:`StructureError`."""
    try:
        vals = np.asarray(f(zs), dtype=complex)
    except (TypeError, ValueError) as exc:
        raise StructureError(f"evaluator failed on a 1-d array of points: {exc}") from exc
    if vals.ndim == 0:
        return np.full(zs.shape, vals)
    if vals.shape[0] != zs.shape[0]:
        raise StructureError(
            f"evaluator returned shape {vals.shape} for {zs.shape[0]} points; it must "
            "take a 1-d array of points and put them on the leading axis of its result")
    return vals


def _circle_fft(f, anchor, radius, n_points):
    """Normalized DFT of ``f`` on ``|z - anchor| = radius``, entry k being
    ``beta_k radius^k`` up to aliasing, and the circle sup in the coefficient
    space of the sample shape.  Rejects non-finite samples."""
    theta = 2.0 * np.pi * np.arange(n_points) / n_points
    samples = _sample(f, anchor + radius * np.exp(1j * theta))
    if not np.all(np.isfinite(samples)):
        raise EvaluationError("evaluator returned non-finite samples on the quadrature circle")
    circle_sup = float(np.max(_infer_space(samples.shape[1:]).norm(samples)))
    return np.fft.fft(samples, axis=0) / n_points, circle_sup


def _unscale(hat, rq: float, k_max: int) -> np.ndarray:
    """``beta_0..beta_{k_max}`` from normalized quadrature data at radius rq."""
    ks = np.arange(k_max + 1).reshape((k_max + 1,) + (1,) * (hat.ndim - 1))
    return hat[: k_max + 1] / rq ** ks


def _check_extraction(anchor, radius, degree, n_points: int) -> None:
    """:class:`StructureError` unless ``anchor`` is a finite complex scalar,
    ``radius`` finite and positive and ``degree`` an integer in
    ``0..n_points - 1``: checked before f sees a point."""
    anchor = np.asarray(anchor, dtype=complex)
    if anchor.shape != () or not np.isfinite(anchor):
        raise StructureError(f"extraction anchor must be a finite complex scalar, got {anchor}")
    if not (radius > 0 and math.isfinite(radius)):
        raise StructureError(f"extraction radius must be positive and finite, got {radius}")
    if not (isinstance(degree, (int, np.integer)) and 0 <= degree < n_points):
        raise StructureError(
            f"degree bound must be an integer in 0..{n_points - 1}, got {degree!r}")


def cauchy_coefficients(f, anchor, radius, k_max, n_points=256):
    """Taylor coefficients of ``f`` around ``anchor`` by circle quadrature.

    Uniform trapezoid quadrature on ``|z - anchor| = 0.8 * radius`` (a
    discrete Fourier transform of the samples) returns ``beta_0..beta_{k_max}``
    together with the sampled circle sup and the quadrature radius r_q, so
    callers can check the bound ``norm(beta_k) <= sup / r_q^k``.  The raw
    coefficients carry no tail; :func:`cauchy_series` adds one.

    Requires a finite anchor, a finite radius > 0, an integer ``k_max >= 0``
    and ``n_points >= 4 * k_max`` (:class:`StructureError` otherwise); f must
    be bounded holomorphic on the open disc of the given radius around the
    anchor.  f is called once, on the 1-d complex array of the ``n_points``
    nodes, and returns its values with the points on the leading axis; a
    scalar return is a constant.
    """
    _check_extraction(anchor, radius, k_max, n_points)
    if n_points < 4 * k_max:
        raise StructureError(f"need n_points >= 4*k_max, got {n_points} < {4 * k_max}")
    rq = 0.8 * radius
    hat, circle_sup = _circle_fft(f, anchor, rq, n_points)
    return _unscale(hat, rq, k_max), circle_sup, rq


def cauchy_series(f, anchor, radius: float, degree_bound: int,
                  space: CoefficientSpace) -> TruncatedSeries:
    """The Taylor series of ``f`` at ``anchor``, valid on 0.64 * radius.

    Coefficients come from circle quadrature at 0.8 * radius.  Three guards
    reject maps that are not boundedly holomorphic on the claimed ball with
    :class:`EvaluationError`: quadrature at 0.5 * radius must recover the
    same coefficients, every coefficient must obey the Cauchy bound
    ``norm(beta_k) <= circle_sup / r_q^k``, and the series must reproduce f
    at fresh points to within its tail.

    The tail is data-driven: the measured above-degree quadrature mass at
    the validity radius plus twice the geometric aliasing remainder, which
    is estimated from the sampled (not the true) circle sup.  Constants come
    back with norm exactly the constant's norm.

    f is called three times (both circles and 16 probe points), each time on
    a 1-d complex array of points, and returns its values with the points on
    the leading axis, shape ``(points,) + space.shape``; a scalar return is a
    constant.  Other value shapes raise :class:`StructureError`, and so do a
    non-finite anchor, a radius that is not finite and positive and a degree
    bound that is not an integer in ``0..255`` (the quadrature size), before
    f is called.
    """
    _check_extraction(anchor, radius, degree_bound, _QUAD_POINTS)
    n = degree_bound
    rq, rq2 = 0.8 * radius, 0.5 * radius
    hat, circle_sup = _circle_fft(f, anchor, rq, _QUAD_POINTS)
    if hat.shape[1:] != space.shape:
        raise StructureError(f"evaluator values have shape {hat.shape[1:]}, "
                             f"the coefficient space {space.shape}")
    hat2, _ = _circle_fft(f, anchor, rq2, _QUAD_POINTS)
    scale = max(1.0, circle_sup)
    r_cert = 0.8 * rq  # the validity radius, 0.64 * radius
    betas = _unscale(hat, rq, n)
    betas2 = _unscale(hat2, rq2, n)

    disc = space.norm(betas - betas2) * r_cert ** np.arange(n + 1)
    if np.max(disc) > _GUARD_TOL * scale:
        k_bad = int(np.argmax(disc))
        raise EvaluationError(
            "not boundedly holomorphic at claimed radius: coefficient "
            f"{k_bad} disagrees across quadrature radii by {disc[k_bad]:.3g}")

    slack = space.norm(betas) - circle_sup / rq ** np.arange(n + 1)
    if np.any(slack > _GUARD_TOL * scale):
        k_bad = int(np.argmax(slack))
        raise EvaluationError(
            f"not boundedly holomorphic at claimed radius: coefficient {k_bad} "
            f"violates the Cauchy bound by {slack[k_bad]:.3g}")

    # data-driven tail: measured above-degree quadrature mass scaled to the
    # validity radius, plus the geometric aliasing remainder
    q = r_cert / rq
    tail = float(np.sum(space.norm(hat[n + 1:]) * q ** np.arange(n + 1, _QUAD_POINTS)))
    alias = circle_sup * q ** _QUAD_POINTS / (1.0 - q)
    tail += 2.0 * alias
    series = TruncatedSeries(anchor, n, np.ascontiguousarray(betas), r_cert, tail, space)

    probe = anchor + 0.5 * r_cert * np.exp(2j * np.pi * (np.arange(16) + 0.37) / 16)
    resid = float(np.max(space.norm(series.eval(probe) - _sample(f, probe))))
    if resid > tail + _GUARD_TOL * scale:
        raise EvaluationError(
            "not boundedly holomorphic at claimed radius: reconstruction "
            f"misses f by {resid:.3g} (data-driven tail {tail:.3g})")
    return series


def _infer_space(shape: tuple) -> CoefficientSpace:
    if shape == ():
        return scalar_space()
    if len(shape) == 1:
        return vector_space(shape[0])
    if len(shape) == 2 and shape[0] == shape[1]:
        return matrix_space(shape[0])
    raise StructureError(f"cannot infer coefficient space from value shape {shape}")


# ---------------------------------------------------------------------------
# JSON serialization (exact round trip at double precision)
# ---------------------------------------------------------------------------

def _c2p(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def series_to_json(s: TruncatedSeries) -> dict:
    """JSON document {anchor, degree_bound, coeffs, radius, tail_bound, ...}.

    Every complex number is an [re, im] pair; Python's repr-based float
    serialization makes the round trip exact at full double precision.
    Coefficient k is the entry ``[[k], value...]``, and ``"dim"`` is the model
    dimension, always 1.
    """
    entries = [[[k]] + [_c2p(z) for z in s.coeffs[k].reshape(-1)]
               for k in range(s.degree_bound + 1)]
    return {
        "anchor": _c2p(s.anchor),
        "degree_bound": s.degree_bound,
        "coeffs": entries,
        "radius": float(s.radius),
        "tail_bound": float(s.tail_bound),
        "space": {"kind": s.space.kind, "dim": s.space.dim},
        "dim": 1,
    }


def series_from_json(doc: dict) -> TruncatedSeries:
    """The series of a :func:`series_to_json` document; :class:`StructureError`
    if the document is malformed or its ``"dim"`` is present and not 1."""
    try:
        if "dim" in doc and doc["dim"] != 1:
            raise StructureError(f"model dimension {doc['dim']!r}, not 1")
        space = CoefficientSpace(doc["space"]["kind"], doc["space"]["dim"])
        x, y = doc["anchor"]
        anchor = complex(x, y)
        n = int(doc["degree_bound"])
        coeffs = np.zeros((n + 1,) + space.shape, dtype=complex)
        for entry in doc["coeffs"]:
            (k,) = entry[0]
            flat = np.array([complex(p[0], p[1]) for p in entry[1:]])
            coeffs[_index(k, n)] = flat.reshape(space.shape)
        return TruncatedSeries(anchor, n, coeffs, float(doc["radius"]),
                               float(doc["tail_bound"]), space)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise StructureError(f"malformed series document: {exc!r}") from exc


def series_json_dumps(s: TruncatedSeries) -> str:
    return json.dumps(series_to_json(s), sort_keys=True, separators=(",", ":"))


def series_json_loads(text: str) -> TruncatedSeries:
    return series_from_json(json.loads(text))
