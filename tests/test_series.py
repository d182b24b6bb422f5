import cmath
import json
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from germlie import series as series_module
from germlie.complexify import build_transition
from germlie.errors import BudgetError, EvaluationError, StructureError
from germlie.series import (
    SeriesStack,
    TruncatedSeries,
    bracket,
    cauchy_coefficients,
    cauchy_series,
    invert,
    linear_combination,
    matrix_space,
    multiply,
    scalar_space,
    series_exp,
    series_from_json,
    series_json_dumps,
    series_json_loads,
    series_log,
    series_to_json,
    spectral_norms,
    vector_space,
)
from germlie.series import (
    _block_toeplitz,
    _cauchy_product,
    _exp_order,
    _identity_stack,
    _log_order,
    _powers,
    _product_tail,
    _truncated_product,
)

SP = scalar_space()
VS = vector_space(3)
MS = matrix_space(2)


def random_scalar_series(rng, radius=1.0, degree=12, scale=1.0, decay=0.5):
    coeffs = (rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))
    coeffs *= scale * decay ** np.arange(degree + 1)
    return TruncatedSeries(0.0, degree, coeffs, radius, 0.0, SP)


def random_matrix_series(rng, radius=0.5, degree=12, scale=0.05, decay=0.5):
    coeffs = (rng.standard_normal((degree + 1, 2, 2))
              + 1j * rng.standard_normal((degree + 1, 2, 2)))
    coeffs *= scale * decay ** np.arange(degree + 1)[:, None, None]
    return TruncatedSeries(0.0, degree, coeffs, radius, 0.0, MS)


def boundary_points(radius, n=20, interior=0.6):
    return interior * radius * np.exp(1j * np.linspace(0, 2 * np.pi, n, endpoint=False))


def naive_product(x, y):
    """Reference d = 1 Cauchy product of two equal-degree series: (coeffs, radius, tail).

    Coefficients come from the double loop sum_{i+j=k} x_i y_j, the overflow
    beyond the degree bound from np.convolve of the two majorant sequences.
    """
    k = x.degree_bound + 1
    matrix = x.space.kind == "matrix"
    coeffs = np.zeros_like(x.coeffs)
    for i in range(k):
        for j in range(k - i):
            coeffs[i + j] += x.coeffs[i] @ y.coeffs[j] if matrix else x.coeffs[i] * y.coeffs[j]
    radius = min(x.radius, y.radius)
    norm = (lambda c: 2.0 * np.linalg.norm(c, 2)) if matrix else abs
    pw = radius ** np.arange(k)
    am = np.array([norm(c) for c in x.coeffs]) * pw
    bm = np.array([norm(c) for c in y.coeffs]) * pw
    overflow = np.sum(np.convolve(am, bm)[k:])
    kappa = 0.5 if matrix else 1.0
    tail = kappa * (np.sum(am) * y.tail_bound + np.sum(bm) * x.tail_bound
                    + x.tail_bound * y.tail_bound + overflow)
    return coeffs, radius, tail


def reference_invert(a):
    """The Neumann-Horner inverse, kept as an independent oracle for ``invert`` (d = 1).

    Shrinks the radius by 0.75 until q = kappa norm(a_0^{-1}) (majorant(a - a_0)
    + tail) < 0.95, sums S = sum_j (-u)^j for u = a_0^{-1} (a - a_0) by the
    Horner recurrence S <- 1 - u S in the unit-radius variable, adds the
    geometric remainder q^(N+2) / (kappa (1 - q)) and returns S a_0^{-1}.
    """
    n, space = a.degree_bound, a.space
    shape = (n + 1,) + (1,) * len(space.shape)

    def rescale(s, lam):
        return TruncatedSeries(s.anchor, n, s.coeffs * (lam ** np.arange(n + 1)).reshape(shape),
                               s.radius / lam, s.tail_bound, space)

    def constant(value, radius):
        return TruncatedSeries.constant(value, a.anchor, radius, space, n)

    c0 = a.coeffs[0]
    c0_inv = np.linalg.inv(c0) if space.kind == "matrix" else 1.0 / c0
    kappa = space.submult_factor
    tilde = a - constant(c0, a.radius)
    radius = a.radius
    while True:
        q = kappa * float(space.norm(c0_inv)) * (tilde.poly_majorant(radius) + a.tail_bound)
        if q < 0.95:
            break
        radius *= 0.75
        if radius < a.radius * 1e-6:
            raise BudgetError("Neumann budget unattainable")
    at = rescale(tilde.restrict(radius).with_tail(a.tail_bound), radius)
    u = multiply(constant(c0_inv, at.radius), at)
    one = TruncatedSeries.unit(a.anchor, at.radius, space, n)
    acc = one
    for _ in range(n + 1):
        acc = one - multiply(u, acc)
    acc = acc.with_tail(q ** (n + 2) / (kappa * (1.0 - q)))
    return rescale(multiply(acc, constant(c0_inv, at.radius)), 1.0 / radius)


def reference_horner(x, x_norms, tail, tops, alpha, beta, kappa):
    """The Horner loop of ``SeriesStack.exp``/``log`` with one full
    ``_cauchy_product`` (Toeplitz gather of x, unit-radius majorants, masked
    update) per term, kept as an oracle for the one-gather loop."""
    one = _identity_stack(x)
    unit = np.ones(len(x))
    s = one * np.array([alpha(t) for t in tops])[:, None, None, None]
    s_tail = np.zeros(len(x))
    for j in range(int(tops.max()) - 1, 0, -1):
        pw = unit[:, None] ** np.arange(x.shape[1])
        am, bm = x_norms * pw, spectral_norms(s) / kappa * pw
        c, t = _cauchy_product(_block_toeplitz(x), s, am, am.sum(axis=1),
                               bm[:, ::-1].cumsum(axis=1), tail, s_tail, kappa)
        live = tops > j
        s = np.where(live[:, None, None, None], alpha(j) * one + beta(j) * c, s)
        s_tail = np.where(live, abs(beta(j)) * t, s_tail)
    return s, s_tail


def reference_inline_horner(x, x_norms, tail, tops, alpha, beta, kappa):
    """The one-gather Horner loop with each term's tail certified inside the
    loop, one ``spectral_norms`` per term; kept as the bitwise oracle for
    ``_horner``, which certifies all terms in one pass after the loop."""
    n_rows, k, m, _ = x.shape
    op = _block_toeplitz(x)
    one = np.zeros_like(x)
    one[:, 0] = np.eye(m)
    s = one * np.array([alpha(t) for t in tops])[:, None, None, None]
    s_tail = np.zeros(n_rows)
    mx, mx_high = x_norms.sum(axis=1), x_norms[:, 1:]
    all_live = int(tops.min())
    for j in range(int(tops.max()) - 1, 0, -1):
        c = np.matmul(op, s.reshape(n_rows, k * m, m)).reshape(n_rows, k, m, m)
        suffix = (spectral_norms(s)[:, ::-1] / kappa).cumsum(axis=1)
        overflow = (mx_high * suffix[:, : k - 1]).sum(axis=1)
        t = _product_tail(mx, suffix[:, -1], tail, s_tail, overflow, kappa)
        c = alpha(j) * one + beta(j) * c
        t = abs(beta(j)) * t
        if j < all_live:
            s, s_tail = c, t
        else:
            live = tops > j
            s = np.where(live[:, None, None, None], c, s)
            s_tail = np.where(live, t, s_tail)
    return s, s_tail


def near_unit_series(rng, space, radius, degree, scale, tail=0.0):
    """Unit plus a random perturbation of majorant about ``scale`` on ``radius``."""
    shape = (degree + 1,) + space.shape
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    decay = (0.5 / radius) ** np.arange(degree + 1) / (degree + 1)
    coeffs *= scale * decay.reshape((degree + 1,) + (1,) * len(space.shape))
    coeffs[0] += space.one()
    return TruncatedSeries(0.0, degree, coeffs, radius, tail, space)


def circle(radius, n=64):
    return radius * np.exp(2j * np.pi * (np.arange(n) + 0.5) / n)


def draw_product_factor(rng, space, degree=12):
    shape = (degree + 1,) + space.shape
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    decay = 0.7 ** np.arange(degree + 1)
    coeffs *= rng.uniform(0.01, 1.0) * decay.reshape((degree + 1,) + (1,) * len(space.shape))
    tail = rng.choice([0.0, rng.uniform(0.0, 1e-3)])
    return TruncatedSeries(0.0, degree, coeffs, rng.uniform(0.2, 1.0), tail, space)


def assert_matches_naive(coeffs, radius, tail, x, y):
    ref_coeffs, ref_radius, ref_tail = naive_product(x, y)
    assert_allclose(coeffs, ref_coeffs, rtol=1e-12, atol=1e-15)
    assert radius == ref_radius
    assert tail == pytest.approx(ref_tail, rel=1e-12, abs=0.0)


class TestLinear:
    def test_self_minus_self_is_zero_with_doubled_tail(self, rng):
        s = random_scalar_series(rng).with_tail(0.25)
        out = linear_combination(s, s, 1.0, -1.0)
        assert np.all(out.coeffs == 0)
        assert out.tail_bound == pytest.approx(0.5)

    def test_identity_case(self, rng):
        s = random_scalar_series(rng)
        zero = TruncatedSeries.zero(0.0, 1.0, SP)
        out = linear_combination(s, zero, 1.0, 0.0)
        assert np.array_equal(out.coeffs, s.coeffs)

    def test_random_combination_matches_pointwise(self, rng):
        a = random_scalar_series(rng)
        b = random_scalar_series(rng)
        out = linear_combination(a, b, 2.0, 3.0)
        pts = boundary_points(1.0)
        assert_allclose(out.eval(pts), 2.0 * a.eval(pts) + 3.0 * b.eval(pts),
                        rtol=0, atol=1e-12)

    def test_anchor_mismatch_is_structural(self, rng):
        a = random_scalar_series(rng)
        b = TruncatedSeries.zero(1.0, 1.0, SP)
        with pytest.raises(StructureError):
            linear_combination(a, b)

    def test_space_mismatch_is_structural(self, rng):
        a = random_scalar_series(rng)
        b = TruncatedSeries.zero(0.0, 1.0, MS)
        with pytest.raises(StructureError):
            linear_combination(a, b)


class TestMultiply:
    def test_constant_identity_matrix_is_unit(self, rng):
        b = random_matrix_series(rng)
        one = TruncatedSeries.unit(0.0, 0.5, MS)
        out = multiply(one, b)
        assert_allclose(out.coeffs, b.coeffs, rtol=0, atol=0)

    def test_polynomial_identity(self):
        a = TruncatedSeries.from_coeff_list([(0, 1.0), (1, 1.0)], 0.0, 1.0, SP, 4)
        b = TruncatedSeries.from_coeff_list([(0, 1.0), (1, -1.0)], 0.0, 1.0, SP, 4)
        out = multiply(a, b)
        expect = np.zeros(5, complex)
        expect[0], expect[2] = 1.0, -1.0
        assert_allclose(out.coeffs, expect, rtol=0, atol=1e-15)

    def test_matrix_product_matches_pointwise(self, rng):
        a = random_matrix_series(rng)
        b = random_matrix_series(rng)
        out = multiply(a, b)
        pts = boundary_points(0.5)
        assert_allclose(out.eval(pts), a.eval(pts) @ b.eval(pts), rtol=0, atol=1e-10)

    def test_vector_coefficients_refuse_product(self, rng):
        v = TruncatedSeries.zero(0.0, 1.0, vector_space(2))
        with pytest.raises(StructureError):
            multiply(v, v)

    def test_associativity_at_samples(self, rng):
        a, b, c = (random_matrix_series(rng) for _ in range(3))
        pts = boundary_points(0.5)
        lhs = multiply(multiply(a, b), c).eval(pts)
        rhs = multiply(a, multiply(b, c)).eval(pts)
        assert_allclose(lhs, rhs, rtol=0, atol=1e-10)

    def test_scalar_product_matches_naive_oracle(self, rng):
        # matrix spaces: TestSeriesStack.test_mul_matches_multiply_row_by_row
        for _ in range(20):
            x = draw_product_factor(rng, SP)
            y = draw_product_factor(rng, SP)
            p = multiply(x, y)
            assert_matches_naive(p.coeffs, p.radius, p.tail_bound, x, y)

    def test_tail_certifies_dropped_degrees(self, rng):
        # degree-12 factors truncated at 12: the overflow lives in the tail
        a = random_scalar_series(rng, scale=0.5)
        b = random_scalar_series(rng, scale=0.5)
        out = multiply(a, b)
        pts = boundary_points(1.0, interior=1.0)
        true_vals = a.eval(pts) * b.eval(pts)
        defect = np.max(np.abs(true_vals - out.eval(pts)))
        assert defect <= out.tail_bound + 1e-12


class TestInvert:
    def test_constant_series(self):
        c = np.array([[2.0, 1.0], [0.0, 1.0 + 1j]])
        s = TruncatedSeries.constant(c, 0.0, 1.0, MS, 6)
        out = invert(s)
        assert_allclose(out.coeffs[0], np.linalg.inv(c), rtol=0, atol=1e-14)

    def test_geometric_series(self):
        a = TruncatedSeries.from_coeff_list([(0, 1.0), (1, -1.0)], 0.0, 0.5, SP, 12)
        out = invert(a)
        assert_allclose(out.coeffs.real, np.ones(13), rtol=0, atol=1e-12)
        assert out.tail_bound <= 0.5 ** 13 / 0.5 + 1e-12

    def test_singular_constant_rejected(self):
        s = TruncatedSeries.constant(np.zeros((2, 2)), 0.0, 1.0, MS, 6)
        with pytest.raises(BudgetError):
            invert(s)

    def test_unattainable_budget_reports(self, rng):
        s = TruncatedSeries.constant(np.eye(2), 0.0, 1.0, MS, 6).with_tail(5.0)
        with pytest.raises(BudgetError, match="Neumann"):
            invert(s)

    def test_matrix_series_near_identity(self, rng):
        a = random_matrix_series(rng, scale=0.04) + TruncatedSeries.unit(0.0, 0.5, MS)
        out = invert(a)
        pts = boundary_points(out.radius)
        prod = multiply(a.restrict(out.radius), out)
        assert_allclose(prod.eval(pts), np.broadcast_to(np.eye(2), (20, 2, 2)),
                        rtol=0, atol=1e-9)


class TestExpLog:
    def test_exp_of_zero(self):
        z = TruncatedSeries.zero(0.0, 1.0, MS, 8)
        out = series_exp(z)
        assert_allclose(out.coeffs[0], np.eye(2), rtol=0, atol=0)
        assert np.all(out.coeffs[1:] == 0)

    def test_scalar_exp_taylor_coefficients(self):
        z = TruncatedSeries.from_coeff_list([(1, 1.0)], 0.0, 0.5, SP, 12)
        out = series_exp(z)
        expect = np.array([1.0 / math.factorial(k) for k in range(13)])
        assert_allclose(out.coeffs.real, expect, rtol=0, atol=1e-15)

    def test_log_exp_roundtrip_with_matrix_oracle(self, rng):
        a = random_matrix_series(rng, scale=0.03)
        assert a.majorant_norm() <= 0.2
        back = series_log(series_exp(a))
        assert np.max(MS.norm(back.coeffs - a.coeffs)) < 1e-9
        # independent pointwise oracle: matrix exp of values
        import scipy.linalg
        pts = boundary_points(0.5, n=7)
        vals = series_exp(a).eval(pts)
        for p, v in zip(pts, vals):
            assert_allclose(v, scipy.linalg.expm(a.eval(np.array([p]))[0]),
                            rtol=0, atol=1e-10)

    def test_log_budget_violation(self):
        s = TruncatedSeries.constant(3.0 * np.eye(2), 0.0, 1.0, MS, 6)
        with pytest.raises(BudgetError, match="branch"):
            series_log(s)


INVERT_CASES = [(space, radius, degree, tail)
                for space in (SP, MS) for radius in (1.0, 0.1)
                for degree in (1, 4, 12) for tail in (0.0, 1e-6)]


class TestInvertOracle:
    @pytest.mark.parametrize("space,radius,degree,tail", INVERT_CASES)
    def test_against_neumann_reference(self, space, radius, degree, tail):
        rng = np.random.default_rng(degree + 100 * (space is MS) + 10 * (radius < 1))
        matrix = space.kind == "matrix"
        for scale in (0.1, 0.4, 0.8):
            a = near_unit_series(rng, space, radius, degree, scale, tail)
            ref, out = reference_invert(a), invert(a)
            pw = ref.radius ** np.arange(degree + 1)
            size = float(np.sum(space.norm(ref.coeffs) * pw))
            assert np.max(space.norm(out.coeffs - ref.coeffs) * pw) <= 1e-12 * size
            assert out.radius >= ref.radius
            if out.radius == ref.radius:
                assert out.tail_bound <= ref.tail_bound + 1e-15
            # true error of the polynomial part against the pointwise inverse
            pts = circle(out.radius)
            vals = a.eval(pts)
            truth = np.linalg.inv(vals) if matrix else 1.0 / vals
            err = float(np.max(space.norm(out.eval(pts) - truth)))
            assert err <= out.tail_bound + 1e-12 * max(1.0, out.majorant_norm())

    @pytest.mark.parametrize("b", [1, 2, 65])
    def test_stack_rows_equal_single_series_bit_for_bit(self, rng, b):
        xs = [near_unit_series(rng, MS, rng.choice([1.0, 0.1]), 12, rng.uniform(0.05, 0.3),
                               rng.choice([0.0, 1e-7])) for _ in range(b)]
        stack = SeriesStack.from_series(xs)
        for method, single in ((SeriesStack.invert, invert), (SeriesStack.exp, series_exp),
                               (SeriesStack.log, series_log)):
            out = method(stack)
            for i, x in enumerate(xs):
                ref = single(x)
                assert np.array_equal(out.coeffs[i], ref.coeffs)
                assert out.tail[i] == ref.tail_bound and out.radius[i] == ref.radius

    @pytest.mark.parametrize("radius", [1.0, 0.1])
    def test_exp_and_log_match_scipy(self, rng, radius):
        import scipy.linalg
        pts = circle(0.9 * radius, 16)
        for _ in range(5):
            x = near_unit_series(rng, MS, radius, 12, 0.3) - TruncatedSeries.unit(0.0, radius, MS)
            ex = series_exp(x)
            want = np.array([scipy.linalg.expm(v) for v in x.eval(pts)])
            assert np.max(MS.norm(ex.eval(pts) - want)) <= ex.tail_bound + 1e-12
            g = near_unit_series(rng, MS, radius, 12, 0.6)
            lg = series_log(g)
            want = np.array([scipy.linalg.logm(v) for v in g.eval(pts)])
            assert np.max(MS.norm(lg.eval(pts) - want)) <= lg.tail_bound + 1e-12


class TestNorms:
    def test_constant_series_norms(self):
        c = np.array([[0.3, 0.1], [0.0, 0.2]])
        s = TruncatedSeries.constant(c, 0.0, 1.0, MS, 6)
        n = float(MS.norm(c))
        assert s.majorant_norm(1.0) == pytest.approx(n)
        assert s.sample_sup(1.0, 64) == pytest.approx(n)

    def test_monomial_majorant_is_sharp(self):
        z = TruncatedSeries.from_coeff_list([(1, 1.0)], 0.0, 1.0, SP, 6)
        for rho in (0.3, 0.7, 1.0):
            assert z.majorant_norm(rho) == pytest.approx(rho)
            assert z.sample_sup(rho, 64) == pytest.approx(rho)

    def test_sample_below_majorant_random(self, rng):
        for _ in range(50):
            s = random_scalar_series(rng)
            rho = rng.uniform(0.1, 1.0)
            assert s.sample_sup(rho, 100) <= s.majorant_norm(rho) + 1e-12

    def test_majorant_soundness_at_interior_points(self, rng):
        s = random_matrix_series(rng)
        rho = 0.4
        pts = rho * rng.uniform(0, 1, 50) * np.exp(2j * np.pi * rng.uniform(0, 1, 50))
        vals = s.eval(pts)
        assert np.max(MS.norm(vals)) <= s.majorant_norm(rho) + 1e-12

    def test_restriction_monotonicity(self, rng):
        s = random_scalar_series(rng).with_tail(0.1)
        assert s.majorant_norm(0.5) <= s.majorant_norm(1.0)
        assert s.restrict(0.5).tail_bound <= s.tail_bound

    def test_rho_beyond_radius_rejected(self, rng):
        s = random_scalar_series(rng, radius=0.5)
        with pytest.raises(BudgetError):
            s.majorant_norm(0.7)

    @pytest.mark.parametrize("call", [
        lambda s: s.majorant_coeffs(-0.5),
        lambda s: s.poly_majorant(float("nan")),
        lambda s: s.majorant_norm(-0.5),
        lambda s: s.sample_sup(-0.5),
        lambda s: s.sample_sup(float("nan")),
        lambda s: s.sample_sup(0.5, n=0),
    ], ids=["coeffs-negative", "poly-nan", "norm-negative", "sample-negative", "sample-nan",
            "sample-no-points"])
    def test_rho_outside_domain_rejected(self, call):
        s = TruncatedSeries.from_coeff_list([(0, 1.0), (1, 1.0)], 0.0, 1.0, SP, 4)  # 1 + z
        with pytest.raises(StructureError):
            call(s)
        assert s.sample_sup(0.0) == s.majorant_norm(0.0) == 1.0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-2, 2), min_size=1, max_size=8),
           st.floats(0.1, 1.0))
    def test_majorant_soundness_property(self, coeffs, rho):
        s = TruncatedSeries.from_coeff_list(list(enumerate(coeffs)), 0.0, 1.0, SP, 8)
        pts = rho * np.exp(2j * np.pi * np.linspace(0, 1, 17, endpoint=False))
        assert np.max(np.abs(s.eval(pts))) <= s.majorant_norm(rho) + 1e-12


BAD_EXTRACTION_INPUTS = {
    "unit-nan-anchor": lambda f: TruncatedSeries.unit(math.nan, 1.0, SP, 3),
    "json-nan-anchor": lambda f: series_json_loads(
        series_json_dumps(TruncatedSeries.unit(0.0, 1.0, SP, 3))
        .replace('"anchor":[0.0,0.0]', '"anchor":[NaN,0.0]')),
    "series-nan-anchor": lambda f: cauchy_series(f, math.nan, 1.0, 8, SP),
    "series-inf-anchor": lambda f: cauchy_series(f, complex(0.0, math.inf), 1.0, 8, SP),
    "series-zero-radius": lambda f: cauchy_series(f, 0.0, 0.0, 8, SP),
    "series-negative-radius": lambda f: cauchy_series(f, 0.0, -1.0, 8, SP),
    "series-nan-radius": lambda f: cauchy_series(f, 0.0, math.nan, 8, SP),
    "series-negative-degree": lambda f: cauchy_series(f, 0.0, 1.0, -1, SP),
    "series-degree-256": lambda f: cauchy_series(f, 0.0, 1.0, 256, SP),
    "series-float-degree": lambda f: cauchy_series(f, 0.0, 1.0, 8.0, SP),
    "coefficients-nan-anchor": lambda f: cauchy_coefficients(f, math.nan, 1.0, 8),
    "coefficients-zero-radius": lambda f: cauchy_coefficients(f, 0.0, 0.0, 8),
    "coefficients-negative-radius": lambda f: cauchy_coefficients(f, 0.0, -1.0, 8),
    "coefficients-negative-degree": lambda f: cauchy_coefficients(f, 0.0, 1.0, -1),
    "transition-zero-radius": lambda f: build_transition(f, 0, 1, (0.0, 0.3), piece_radius=0.0),
}


class TestCauchyExtraction:
    @pytest.mark.parametrize("case", sorted(BAD_EXTRACTION_INPUTS))
    def test_bad_input_rejected_before_sampling(self, case):
        # these used to build, warn, divide by zero, raise EvaluationError or a
        # bare ValueError, or return a negative quadrature radius
        calls = []

        def f(z):
            calls.append(z)
            return np.exp(z)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StructureError):
                BAD_EXTRACTION_INPUTS[case](f)
        assert calls == []

    def test_degrees_below_the_quadrature_size_extract(self):
        assert cauchy_series(np.exp, 0.0, 1.0, 92, SP).degree_bound == 92

    def test_monomial(self):
        betas, sup, rq = cauchy_coefficients(lambda z: z ** 2, 0.0, 1.0, 6, 256)
        expect = np.zeros(7, complex)
        expect[2] = 1.0
        assert_allclose(betas, expect, rtol=0, atol=1e-12)

    def test_constant(self):
        betas, _, _ = cauchy_coefficients(lambda z: 2.5 - 1j, 0.0, 1.0, 4, 64)
        assert_allclose(betas[0], 2.5 - 1j, rtol=0, atol=1e-14)
        assert_allclose(betas[1:], 0, rtol=0, atol=1e-14)

    def test_random_degree8_polynomial(self, rng):
        coeffs = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        betas, _, _ = cauchy_coefficients(
            lambda z: np.polyval(coeffs[::-1], z), 0.0, 1.0, 8, 256)
        assert_allclose(betas, coeffs, rtol=0, atol=1e-10)

    def test_cauchy_bound_holds(self, rng):
        coeffs = rng.standard_normal(9)
        betas, sup, rq = cauchy_coefficients(
            lambda z: np.polyval(coeffs[::-1], z), 0.0, 1.0, 8, 256)
        bounds = sup / rq ** np.arange(9)
        assert np.all(np.abs(betas) <= bounds + 1e-10)

    def test_nonfinite_samples_rejected(self):
        # pole sitting exactly on the quadrature circle
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(EvaluationError):
                cauchy_coefficients(lambda z: 1.0 / (z - 0.8), 0.0, 1.0, 4, 64)

    def test_quadrature_count_precondition(self):
        with pytest.raises(StructureError):
            cauchy_coefficients(lambda z: z, 0.0, 1.0, 20, 64)


class TestArrayEvaluators:
    """The Cauchy extractor calls f once per point array, points on the leading axis."""

    def test_scalar_evaluator_against_vector_space(self):
        with pytest.raises(StructureError, match="coefficient space"):
            cauchy_series(np.exp, 0.0, 1.0, 8, vector_space(3))

    @pytest.mark.parametrize("f", [lambda z: np.stack([z, z]), lambda z: cmath.exp(z)],
                             ids=["points-not-leading", "pointwise-only"])
    def test_misshaped_evaluator(self, f):
        with pytest.raises(StructureError, match="1-d array of points"):
            cauchy_series(f, 0.0, 1.0, 8, vector_space(2))
        with pytest.raises(StructureError, match="1-d array of points"):
            cauchy_coefficients(f, 0.0, 1.0, 8, 64)


def _mp_horner(c, w):
    """Horner in mpmath of the coefficients ``c`` at the mpmath point w."""
    acc = mpmath.mpc(0)
    for x in c[::-1]:
        acc = acc * w + mpmath.mpc(complex(x))
    return acc


def _mp_eval(coeffs, ws):
    """50-digit values of the polynomial ``coeffs`` (the degree axis, then the
    space shape) at each offset in ``ws``."""
    flat = coeffs.reshape(coeffs.shape[0], -1)
    out = np.empty((len(ws), flat.shape[-1]), complex)
    with mpmath.workdps(50):
        for p, w in enumerate(ws):
            for e in range(flat.shape[-1]):
                out[p, e] = complex(_mp_horner(flat[:, e], mpmath.mpc(complex(w))))
    return out.reshape((len(ws),) + coeffs.shape[1:])


class TestEvalOracle:
    """``eval`` at degree 30 against 50-digit mpmath, out to 0.98 of the radius."""

    @pytest.mark.parametrize("space", [SP, VS, MS], ids=["scalar", "vector3", "2x2"])
    def test_degree30_matches_mpmath(self, rng, space):
        n, radius = 30, 0.9
        shape = (n + 1,) + space.shape
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        coeffs *= (radius ** -np.arange(n + 1.0)).reshape((-1,) + (1,) * len(space.shape))
        s = TruncatedSeries(0.2 - 0.1j, n, coeffs, radius, 0.0, space)
        w = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        ws = 0.98 * radius * w / np.abs(w)
        want = _mp_eval(coeffs, ws)
        err = float(np.max(space.norm(s.eval(s.anchor + ws) - want)))
        assert err <= 1e-14 * s.majorant_norm()


class TestEvalKernel:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 12, 30])
    @pytest.mark.parametrize("shape", [(), (5,)], ids=["0-d", "1-d"])
    def test_powers_match_mpmath(self, rng, n, shape):
        w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = _powers(w, n)
        assert got.shape == (n + 1,) + shape
        rows = got.reshape(n + 1, -1)
        with mpmath.workdps(50):
            for p, x in enumerate(np.ravel(w)):
                for k in range(n + 1):
                    exact = mpmath.mpc(complex(x)) ** k
                    err = abs(mpmath.mpc(complex(rows[k, p])) - exact)
                    assert err <= 4 * max(n, 1) * np.finfo(float).eps * abs(exact)

    @pytest.mark.parametrize("space", [SP, VS, MS], ids=["scalar", "vector3", "2x2"])
    @pytest.mark.parametrize("pshape", [(0,), (), (2, 3)], ids=["empty", "0-d", "2-d"])
    def test_eval_shape_follows_points(self, rng, space, pshape):
        n = 5
        coeffs = rng.standard_normal((n + 1,) + space.shape) + 0j
        s = TruncatedSeries(0.0, n, coeffs, 1.0, 0.0, space)
        pts = 0.3 * rng.standard_normal(pshape + (2,)) @ np.array([1.0, 1j])
        got = s.eval(pts)
        assert got.shape == pshape + space.shape
        flat = pts.reshape(-1)
        want = [s.eval(flat[p:p + 1])[0] for p in range(len(flat))]
        assert_allclose(got.reshape((-1,) + space.shape), np.reshape(want, (-1,) + space.shape),
                        rtol=1e-14, atol=1e-15)


SERIES_DOCUMENTS = Path(__file__).with_name("data") / "series_documents.jsonl"


def documented_series():
    """The series of ``SERIES_DOCUMENTS``, one ``series_json_dumps`` line each,
    written before the series type dropped its model-dimension field."""
    rng = np.random.default_rng(2027)
    s, m = random_scalar_series(rng, degree=4), random_matrix_series(rng, degree=3)
    return [TruncatedSeries(0.3 - 0.2j, 4, s.coeffs, 0.9, 1 / 3, SP),
            TruncatedSeries(-0.1j, 3, m.coeffs, 0.5, 2e-17, MS)]


class TestSerialization:
    def test_exact_roundtrip_scalar(self, rng):
        s = random_scalar_series(rng).with_tail(1 / 3)
        s2 = series_json_loads(series_json_dumps(s))
        assert np.array_equal(s.coeffs, s2.coeffs)
        assert s.radius == s2.radius and s.tail_bound == s2.tail_bound
        assert s.anchor == s2.anchor and s.degree_bound == s2.degree_bound

    def test_exact_roundtrip_matrix(self, rng):
        s = random_matrix_series(rng)
        s2 = series_from_json(json.loads(json.dumps(series_to_json(s))))
        assert np.array_equal(s.coeffs, s2.coeffs)
        assert s2.space == MS

    def test_schema_keys(self, rng):
        doc = series_to_json(random_scalar_series(rng))
        assert {"anchor", "degree_bound", "coeffs", "radius", "tail_bound"} <= set(doc)

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["coeffs"].append([[-1], [5.0, 0.0]]),
        lambda doc: doc["coeffs"].append([[7], [5.0, 0.0]]),
        lambda doc: doc["coeffs"][1].append([5.0, 0.0]),
        lambda doc: doc.pop("radius"),
        lambda doc: doc.update(dim=2),
        lambda doc: doc.update(anchor=[[0.0, 0.0], [0.0, 0.0]]),
        lambda doc: doc["coeffs"][1].__setitem__(0, [1, 0]),
        lambda doc: doc["coeffs"][1].__setitem__(0, 1),
    ], ids=["negative-degree", "beyond-degree-bound", "extra-value", "missing-key", "dim-2",
            "two-entry-anchor", "two-entry-index", "bare-index"])
    def test_malformed_document_is_structural(self, edit):
        doc = series_to_json(TruncatedSeries.from_coeff_list([(1, 2.0)], 0.0, 1.0, SP, 3))
        edit(doc)
        with pytest.raises(StructureError):
            series_from_json(doc)

    @pytest.mark.parametrize("drop_dim", [False, True], ids=["dim-1", "no-dim"])
    def test_stored_documents_load_bit_exact(self, drop_dim):
        lines = SERIES_DOCUMENTS.read_text().splitlines()
        for text, want in zip(lines, documented_series(), strict=True):
            doc = json.loads(text)
            assert doc["dim"] == 1 and all(len(e[0]) == 1 for e in doc["coeffs"])
            if drop_dim:
                del doc["dim"]
            got = series_from_json(doc)
            assert got.coeffs.tobytes() == want.coeffs.tobytes()
            assert str(got.anchor) == str(want.anchor)  # the sign of a zero part too
            assert (got.degree_bound, got.radius, got.tail_bound, got.space) == \
                (want.degree_bound, want.radius, want.tail_bound, want.space)
            assert series_json_dumps(got) == text

    @pytest.mark.parametrize("index", [-1, 4, (1,), 1.5])
    def test_coeff_list_outside_degrees_rejected(self, index):
        with pytest.raises(StructureError):
            TruncatedSeries.from_coeff_list([(index, 5.0)], 0.0, 1.0, SP, 3)

    @pytest.mark.parametrize("anchor", [(0.0, 0.0), [0.5j]], ids=["pair", "list"])
    def test_anchor_must_be_a_complex_scalar(self, anchor):
        with pytest.raises(StructureError, match="anchor must be a complex scalar"):
            TruncatedSeries.unit(anchor, 1.0, SP, 3)


def reference_majorant_coeffs(s, rho):
    """The majorant sequence as first written, elementwise."""
    return s.coeff_norms() * rho ** np.arange(s.degree_bound + 1)


def reference_truncate(s, n):
    """Coefficients and tail of ``s.truncate(n)`` as first written."""
    dropped = float(np.sum(reference_majorant_coeffs(s, s.radius)[n + 1:]))
    return s.coeffs[: n + 1], s.tail_bound + dropped


class TestOneMajorantPath:
    @staticmethod
    def _random_d1(rng, space, degree=10, radius=0.7, tail=1e-4):
        shape = (degree + 1,) + space.shape
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        coeffs *= (0.6 ** np.arange(degree + 1)).reshape((-1,) + (1,) * len(space.shape))
        return TruncatedSeries(0.2 - 0.1j, degree, coeffs, radius, tail, space)

    @pytest.mark.parametrize("space", [SP, VS, MS], ids=["scalar", "vector", "2x2"])
    def test_d1_bit_equal_to_the_elementwise_branch(self, rng, space):
        s = self._random_d1(rng, space)
        for rho in (None, 0.0, 0.3, 0.7):
            got = s.majorant_coeffs(rho)
            want = reference_majorant_coeffs(s, s.radius if rho is None else rho)
            assert got.tobytes() == want.tobytes()
        for n in range(s.degree_bound):
            t = s.truncate(n)
            coeffs, tail = reference_truncate(s, n)
            assert t.coeffs.tobytes() == np.ascontiguousarray(coeffs).tobytes()
            assert t.tail_bound == tail


class TestBracket:
    def test_bracket_antisymmetric(self, rng):
        a = random_matrix_series(rng)
        b = random_matrix_series(rng)
        lhs = bracket(a, b)
        rhs = bracket(b, a)
        assert_allclose(lhs.coeffs, -rhs.coeffs, rtol=0, atol=1e-15)

    def test_bracket_compatible_norm(self, rng):
        # norm([x, y]) <= norm(x) norm(y) for the doubled spectral norm
        for _ in range(100):
            x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            comm = x @ y - y @ x
            assert float(MS.norm(comm)) <= float(MS.norm(x)) * float(MS.norm(y)) + 1e-12


class TestSeriesStack:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("b", [1, 2, 64, 65, 1000])
    def test_mul_matches_multiply_row_by_row(self, rng, b, m):
        # both the stack and the single-series product against the naive oracle
        space = matrix_space(m)
        xs = [draw_product_factor(rng, space) for _ in range(b)]
        ys = [draw_product_factor(rng, space) for _ in range(b)]
        out = SeriesStack.from_series(xs).mul(SeriesStack.from_series(ys))
        for i, (x, y) in enumerate(zip(xs, ys)):
            assert_matches_naive(out.coeffs[i], out.radius[i], out.tail[i], x, y)
            ref = multiply(x, y)
            assert_matches_naive(ref.coeffs, ref.radius, ref.tail_bound, x, y)

    def test_scalar_stack_keeps_kappa_one(self, rng):
        # scalars as 1 x 1 matrices under the modulus, which is 1-submultiplicative
        x, y = (near_unit_series(rng, SP, 1.0, 12, 0.3, 1e-7) for _ in range(2))
        a, b = SeriesStack.from_series([x]), SeriesStack.from_series([y])
        assert a.kappa == 1.0 and a.coeffs.shape == (1, 13, 1, 1)
        (back,) = a.to_series([0.0], SP)
        assert np.array_equal(back.coeffs, x.coeffs) and back.tail_bound == x.tail_bound
        derived = (a.rows(slice(0, 1)), a.add(b), a.scale(0.5), a.mul(b), a.bracket(b),
                   a.exp(), a.log(), a.invert())
        assert [d.kappa for d in derived] == [1.0] * len(derived)
        for out, ref in ((a.mul(b), multiply(x, y)), (a.exp(), series_exp(x)),
                         (a.log(), series_log(x)), (a.invert(), invert(x))):
            assert np.array_equal(out.coeffs.reshape(ref.coeffs.shape), ref.coeffs)
            assert out.tail[0] == ref.tail_bound and out.radius[0] == ref.radius

    @staticmethod
    def exp_log_stacks(rng, b, m):
        """A stack for exp and a near-unit stack for log, row scales spread over
        two decades so that the rows take different exp and log orders."""
        k = 13
        kappa = 0.5 if m > 1 else 1.0
        shape = (b, k, m, m)
        raw = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
            * 0.6 ** np.arange(k)[:, None, None]
        # unit-radius majorant of row i equal to scale[i]
        scale = np.geomspace(0.004, 0.6, b) if b > 1 else np.array([0.3])
        raw *= (scale / np.sum(spectral_norms(raw) / kappa, axis=1))[:, None, None, None]
        radius = rng.uniform(0.3, 1.0, b)
        x = raw / radius[:, None, None, None] ** np.arange(k)[:, None, None]
        tail = rng.choice([0.0, 1e-9], b)
        unit = SeriesStack(_identity_stack(x) + x, radius, tail, kappa)
        return SeriesStack(x, radius, tail, kappa), unit

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("b", [1, 2, 14, 65])
    def test_exp_log_match_per_term_product_horner(self, rng, monkeypatch, b, m):
        x, near_unit = self.exp_log_stacks(rng, b, m)
        got = (x.exp(), near_unit.log())
        monkeypatch.setattr(series_module, "_horner", reference_horner)
        want = (x.exp(), near_unit.log())
        for out, ref in zip(got, want):
            assert np.array_equal(out.radius, ref.radius)
            for i in range(b):
                scale = np.max(np.abs(ref.coeffs[i]))
                assert_allclose(out.coeffs[i], ref.coeffs[i], rtol=1e-13, atol=1e-13 * scale)
            assert_allclose(out.tail, ref.tail, rtol=1e-12, atol=0.0)
        if b > 1:  # the live mask of the Horner loop is mixed
            kappa = x.kappa
            q = kappa * (np.sum(spectral_norms(x.coeffs * x.radius[:, None, None, None]
                                               ** np.arange(13)[:, None, None]) / kappa, axis=1)
                         + x.tail)
            assert len({_exp_order(float(v)) for v in q}) > 1
            w = near_unit.coeffs * near_unit.radius[:, None, None, None] \
                ** np.arange(13)[:, None, None] - _identity_stack(near_unit.coeffs)
            q = kappa * (np.sum(spectral_norms(w) / kappa, axis=1) + near_unit.tail)
            assert len({_log_order(float(v), 12) for v in q}) > 1

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("b", [1, 2, 14, 65])
    def test_exp_log_bitwise_equal_to_inline_certificate(self, rng, monkeypatch, b, m):
        # the mixed live mask of these stacks is asserted in the test above
        x, near_unit = self.exp_log_stacks(rng, b, m)
        got = (x.exp(), near_unit.log())
        monkeypatch.setattr(series_module, "_horner", reference_inline_horner)
        want = (x.exp(), near_unit.log())
        for out, ref in zip(got, want):
            assert out.coeffs.tobytes() == ref.coeffs.tobytes()
            assert out.tail.tobytes() == ref.tail.tobytes()
            assert out.radius.tobytes() == ref.radius.tobytes()

    @pytest.mark.parametrize("m", [1, 2])
    def test_exp_log_take_two_spectral_norms_at_any_order(self, rng, monkeypatch, m):
        calls = []

        def counted(values):
            calls.append(values.shape)
            return spectral_norms(values)

        monkeypatch.setattr(series_module, "spectral_norms", counted)
        x, near_unit = self.exp_log_stacks(rng, 14, m)
        # row 0 has the shortest Horner chains of the stack, row 13 the longest
        for rows in (slice(0, 1), slice(13, 14), slice(None)):
            for op in (x.rows(rows).exp, near_unit.rows(rows).log):
                calls.clear()
                op()
                assert len(calls) == 2

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("b", [2, 14, 40])
    def test_rows_keep_prepared_exp_terms_and_norms(self, rng, monkeypatch, b, m):
        k, kappa = 13, 0.5 if m > 1 else 1.0
        shape = (b, k, m, m)
        raw = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
            * 0.6 ** np.arange(k)[:, None, None]
        # q = kappa * unit-radius majorant runs from 1e-3 to 1 over the rows
        q = rng.permutation(np.geomspace(1e-3, 1.0, b))
        raw *= (q / kappa / np.sum(spectral_norms(raw) / kappa, axis=1))[:, None, None, None]
        radius = rng.uniform(0.3, 1.0, b)
        tail = rng.choice([0.0, 1e-9], b)
        stack = SeriesStack(raw / radius[:, None, None, None] ** np.arange(k)[:, None, None],
                            radius, tail, kappa)
        stack.prepare_exp().norms()
        assert len(set(stack._exp_terms[2].tolist())) > 1  # mixed exp orders
        calls = []

        def counted(values):
            calls.append(values.shape)
            return spectral_norms(values)

        monkeypatch.setattr(series_module, "spectral_norms", counted)
        for idx in (slice(None), slice(1, None, 2), rng.permutation(b)[: b // 2 + 1],
                    np.array([b - 1, 0])):
            kept = stack.rows(idx)
            fresh = SeriesStack(stack.coeffs[idx], stack.radius[idx], stack.tail[idx], kappa)
            assert kept.norms().tobytes() == fresh.norms().tobytes()
            calls.clear()
            got = kept.exp()
            assert len(calls) == 1  # the iterates only: a's norms were kept
            want = fresh.exp()
            assert same_bytes(got, want)


def weighted_add(a, b, alpha, beta):
    """``alpha a + beta b``, tail ``|alpha| tau_a + |beta| tau_b``, weights multiplied in."""
    return SeriesStack(alpha * a.coeffs + beta * b.coeffs, np.minimum(a.radius, b.radius),
                       abs(alpha) * a.tail + abs(beta) * b.tail, a.kappa)


def fresh_products(a, b):
    """``a b`` and ``b a`` on copies of the stacks that keep no operator."""
    a, b = (SeriesStack(s.coeffs, s.radius, s.tail, s.kappa) for s in (a, b))
    return a.mul(b), b.mul(a)


def partwise(x, y, op):
    """``op`` on the real and on the imaginary parts of two complex arrays."""
    out = np.empty_like(x)
    out.real, out.imag = op(x.real, y.real), op(x.imag, y.imag)
    return out


def same_bytes(x, y):
    return all(u.tobytes() == v.tobytes()
               for u, v in zip((x.coeffs, x.radius, x.tail), (y.coeffs, y.radius, y.tail)))


class TestUnitWeights:
    @staticmethod
    def stack(rng, m, parts=None, rows=4):
        """Rows with their own radii and tails; real and imaginary parts drawn
        from ``parts`` if given."""
        shape = (rows, 13, m, m)
        if parts is None:
            coeffs = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
                * 0.5 ** np.arange(13)[:, None, None]
        else:
            coeffs = np.empty(shape, dtype=complex)
            coeffs.real, coeffs.imag = rng.choice(parts, shape), rng.choice(parts, shape)
        return SeriesStack(coeffs, rng.uniform(0.3, 1.0, rows), rng.choice([0.0, 1e-9, 3e-7], rows),
                           0.5 if m > 1 else 1.0)

    @pytest.mark.parametrize("m", [1, 2])
    def test_add_and_bracket_bitwise_equal_to_weighted_formula(self, rng, m):
        a, b = (self.stack(rng, m) for _ in range(2))
        assert same_bytes(a + b, weighted_add(a, b, 1.0, 1.0))
        assert a._op is None and b._op is None
        for left, right in ((a, b), (b, a), (a, b)):
            ab, ba = fresh_products(left, right)
            assert same_bytes(left.bracket(right), weighted_add(ab, ba, 1.0, -1.0))

    @pytest.mark.parametrize("m", [1, 2])
    def test_signed_zeros_and_infinities(self, rng, m):
        # rows 1.. hold signed zeros and finite parts, row 0 infinities too
        a, b = (self.stack(rng, m, [0.0, -0.0, 1.5, -0.25]) for _ in range(2))
        for s in (a, b):
            s.coeffs[0] = self.stack(rng, m, [0.0, -0.0, np.inf, -np.inf, 1.5], 1).coeffs[0]
        with np.errstate(invalid="ignore"):
            ab, ba = fresh_products(a, b)
            cases = ((a + b, a, b, np.add, 1.0),
                     (a.bracket(b), ab, ba, np.subtract, -1.0))
            for got, x, y, op, beta in cases:
                ref = weighted_add(x, y, 1.0, beta)
                assert got.coeffs.tobytes() == partwise(x.coeffs, y.coeffs, op).tobytes()
                assert got.radius.tobytes() == ref.radius.tobytes()
                assert got.tail.tobytes() == ref.tail.tobytes()
                # NumPy weighs by 1 + 0j: equal values where both sides are finite
                finite = np.isfinite(x.coeffs) & np.isfinite(y.coeffs)
                assert np.array_equal(got.coeffs[finite], ref.coeffs[finite])
                assert np.any(finite[1:]) and not np.all(finite[0])
            # but some zero parts of the weighted sum change sign
            assert (a + b).coeffs.tobytes() != weighted_add(a, b, 1.0, 1.0).coeffs.tobytes()


def lag_convolution(a, b):
    """c_d = sum_i a_{d-i} b_i of two (B, K, m, m) stacks, one einsum over the
    lags per degree."""
    out = np.zeros_like(a)
    for d in range(a.shape[1]):
        out[:, d] = np.einsum("blij,bljk->bik", a[:, d::-1], b[:, :d + 1])
    return out


def lag_product_tail(a, b):
    """The product tail of two stacks from the full majorant convolution."""
    k = a.coeffs.shape[1]
    radius = np.minimum(a.radius, b.radius)
    pw = radius[:, None] ** np.arange(k)
    am, bm = a.norms() * pw, b.norms() * pw
    full = np.stack([np.convolve(u, v) for u, v in zip(am, bm)])
    return a.kappa * (am.sum(axis=1) * b.tail + bm.sum(axis=1) * a.tail + a.tail * b.tail
                      + full[:, k:].sum(axis=1))


class TestProductKernel:
    @staticmethod
    def stack(rng, m, rows):
        """Rows with their own radii, tails and scales over four decades."""
        out = TestUnitWeights.stack(rng, m, rows=rows)
        out.coeffs *= 10.0 ** rng.uniform(-3.0, 1.0, rows)[:, None, None, None]
        return out

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("b", [1, 3, 68])
    def test_mul_matches_lag_by_lag_convolution(self, rng, b, m):
        x, y = (self.stack(rng, m, b) for _ in range(2))
        for left, right in ((x, y), (y, x)):
            out = left.mul(right)
            want = lag_convolution(left.coeffs, right.coeffs)
            for i in range(b):
                scale = np.max(np.abs(want[i]))
                assert_allclose(out.coeffs[i], want[i], rtol=1e-14, atol=1e-14 * scale)
            assert np.array_equal(out.radius, np.minimum(x.radius, y.radius))
            assert_allclose(out.tail, lag_product_tail(left, right), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("b", [1, 3, 68])
    def test_mul_on_the_right_factors_transposed_operator(self, rng, monkeypatch, b, m):
        # a b as (b^T's operator) a^T, transposed back, where only b keeps
        # operators; radii differ row by row between the factors
        x, y = (self.stack(rng, m, b) for _ in range(2))
        gathers = []
        gather = series_module._block_toeplitz
        monkeypatch.setattr(series_module, "_block_toeplitz",
                            lambda a: gathers.append(1) or gather(a))
        for left, right in ((x, y), (y, x)):
            want = fresh_products(left, right)[0]
            kept = SeriesStack(right.coeffs, right.radius, right.tail, right.kappa).keep_operators()
            del gathers[:]
            got = left.mul(kept)
            assert not gathers
            for i in range(b):
                scale = np.max(np.abs(want.coeffs[i]))
                assert_allclose(got.coeffs[i], want.coeffs[i], rtol=0.0, atol=1e-14 * scale)
            assert got.radius.tobytes() == want.radius.tobytes()
            assert got.tail.tobytes() == want.tail.tobytes()
            # a left factor with its own operator never takes the transposed
            # path: a poisoned transposed operator would show in the product
            own = SeriesStack(left.coeffs, left.radius, left.tail, left.kappa).keep_operators()
            kept._op_t = np.full_like(kept._op_t, np.nan)
            assert same_bytes(own.mul(kept), want)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_bracket_with_itself_and_its_negative_is_zero(self, rng, m):
        # both products of a bracket run one gemm shape, so x (-x) and (-x) x
        # round alike, whichever operators the two stacks keep
        # [x, 0] is zero in value; its zero parts may carry either sign
        base = self.stack(rng, m, 5)
        others = ((lambda a: a, True), (lambda a: a.scale(-1.0), True),
                  (lambda a: a.scale(0.0), False))
        for keep in ("none", "left", "both"):
            for other, bitwise in others:
                a = SeriesStack(base.coeffs, base.radius, base.tail, base.kappa)
                b = other(a)
                if keep != "none":
                    a._op = _block_toeplitz(a.coeffs)
                if keep == "both":
                    b._op = _block_toeplitz(b.coeffs)
                z = a.bracket(b)
                assert np.all(z.coeffs == 0)
                if bitwise:
                    assert z.coeffs.tobytes() == bytes(z.coeffs.nbytes)


def reference_mul(a, b):
    """``a * b`` with both factors' majorant terms computed afresh at the
    row-wise smaller radius, in one formula: the oracle of the kept terms.
    The coefficients come from the path ``mul`` takes (see its docstring)."""
    k = a.coeffs.shape[1]
    if a._op is None and b._op_t is not None:
        coeffs = _truncated_product(b._op_t, a.coeffs.swapaxes(2, 3)).swapaxes(2, 3)
    else:
        coeffs = _truncated_product(_block_toeplitz(a.coeffs), b.coeffs)
    radius = np.minimum(a.radius, b.radius)
    pw = radius[:, None] ** np.arange(k)
    am, bm = spectral_norms(a.coeffs) / a.kappa * pw, spectral_norms(b.coeffs) / b.kappa * pw
    suffix = bm[:, ::-1].cumsum(axis=1)
    overflow = (am[:, 1:] * suffix[:, : k - 1]).sum(axis=1)
    tail = _product_tail(am.sum(axis=1), suffix[:, -1], a.tail, b.tail, overflow, a.kappa)
    return SeriesStack(coeffs, radius, tail, a.kappa)


KEPT = ("_pw", "_w", "_w_sum", "_suffix")


class TestKeptMajorantTerms:
    @staticmethod
    def stacks(rng, m, rows, radius, count=3):
        """``count`` stacks of near-unit rows (invertible) on the radius array
        ``radius``, scales over two decades."""
        shape = (rows, 13, m, m)
        out = []
        for _ in range(count):
            coeffs = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
                * 0.5 ** np.arange(13)[:, None, None] \
                * 10.0 ** rng.uniform(-4.0, -2.0, rows)[:, None, None, None]
            coeffs[:, 0] += np.eye(m)
            out.append(SeriesStack(coeffs, radius, rng.choice([0.0, 1e-9, 3e-7], rows),
                                   0.5 if m > 1 else 1.0))
        return out

    @staticmethod
    def radii(rng, rows, case):
        """The radius arrays of the three stacks: one array, equal values in
        distinct arrays, or rows that differ between the stacks."""
        r = rng.uniform(0.3, 1.0, rows)
        if case == "shared":
            return r, r, r
        if case == "equal":
            return r, r.copy(), r.copy()
        return r, r * rng.choice([1.0, 0.9], rows), r * rng.choice([1.0, 1.1], rows)

    @pytest.mark.parametrize("case", ["shared", "equal", "different"])
    @pytest.mark.parametrize("keep", ["none", "left", "right"])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("b", [1, 2, 68])
    def test_mul_bitwise_equal_to_fresh_terms(self, rng, b, m, keep, case):
        # every product of three stacks in both orders, twice, so that each
        # stack reads its terms in both roles once they are kept; "right"
        # runs the transposed path of a right factor that keeps operators
        radius = self.radii(rng, b, case)
        x, y, z = (SeriesStack(s.coeffs, r, s.tail, s.kappa)
                   for s, r in zip(self.stacks(rng, m, b, radius[0]), radius))
        if keep == "left":
            x.keep_operators()
        elif keep == "right":
            y.keep_operators()
        for _ in range(2):
            for left, right in ((x, y), (y, x), (x, z), (z, y), (y, z), (x, x)):
                want = reference_mul(left, right)
                got = left.mul(right)
                assert same_bytes(got, want)
                if case != "different" or left is right:
                    assert got.radius is left.radius and got._pw is left._pw
                    assert left._pw is right._pw
        if case != "different":
            for s in (x, y, z):
                assert s._w.tobytes() == (s.norms() * s.radius[:, None] ** np.arange(13)).tobytes()

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("b", [1, 2, 68])
    def test_derived_stacks_carry_no_stale_terms(self, rng, b, m):
        r = rng.uniform(0.3, 1.0, b)
        x, y, z = self.stacks(rng, m, b, r)
        x.mul(y), y.mul(x), x.majorant()  # both roles of x and y kept
        assert all(getattr(s, name) is not None for s in (x, y) for name in KEPT)
        for idx in (slice(None), slice(b - 1, None, -2), rng.permutation(b)[: b // 2 + 1]):
            kept = x.rows(idx)
            fresh = SeriesStack(x.coeffs[idx], x.radius[idx], x.tail[idx], x.kappa)
            for name, want in (("_pw", fresh._powers()), ("_w", fresh._weights()),
                               ("_w_sum", fresh._left_terms()[1]),
                               ("_suffix", fresh._right_terms())):
                assert getattr(kept, name).tobytes() == want.tobytes()
            assert same_bytes(kept.mul(z.rows(idx)), reference_mul(fresh, z.rows(idx)))
        for derived in (x.add(y), x.scale(0.5), x + y, 0.5 * x, x.bracket(y), x.invert(),
                        x.exp(), x.log()):
            assert all(getattr(derived, name) is None for name in KEPT[1:])
            assert same_bytes(derived.mul(z), reference_mul(derived, z))
            assert same_bytes(z.mul(derived), reference_mul(z, derived))
        assert same_bytes(x.scale(0.5).mul(y), reference_mul(x.scale(0.5), y))

    def test_majorant_reads_the_kept_left_terms(self, rng):
        r = rng.uniform(0.3, 1.0, 5)
        x, y, _ = self.stacks(rng, 2, 5, r)
        pw = r[:, None] ** np.arange(13)
        want = np.sum(spectral_norms(x.coeffs) / x.kappa * pw, axis=1) + x.tail
        assert x.majorant().tobytes() == want.tobytes()
        x.mul(y)
        assert x.majorant().tobytes() == want.tobytes()


class TestSpectralNorms:
    def test_two_by_two_matches_closed_form_and_svd(self, rng):
        for i in range(400):
            shape = (int(rng.integers(1, 4)), int(rng.integers(1, 14)), 2, 2)
            v = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
                * 10.0 ** rng.uniform(-8, 2)
            if i % 4 == 0:  # singular rows
                v[..., 1, :] = v[..., 0, :] * complex(rng.standard_normal())
            sv = np.linalg.svd(v, compute_uv=False)
            assert_allclose(spectral_norms(v), sv[..., 0], rtol=1e-15, atol=0.0)
        strided = v[:, ::-1]
        assert spectral_norms(strided).tobytes() == \
            spectral_norms(np.ascontiguousarray(strided)).tobytes()

    def test_two_by_two_matches_svd_everywhere(self, rng):
        # random matrices, Haar unitaries, and singular values that nearly or
        # exactly coincide, over ten decades of scale
        n = 4000
        z = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
        q, r = np.linalg.qr(z)
        phase = np.diagonal(r, axis1=-2, axis2=-1)
        haar = q * (phase / np.abs(phase))[:, None, :]
        u, _, vh = np.linalg.svd(z)
        sigma = np.stack([np.ones(n), 1.0 - np.geomspace(1e-13, 1.0, n)], axis=-1)
        near = (u * sigma[:, None, :]) @ vh * 10.0 ** rng.uniform(-8, 2, n)[:, None, None]
        for v in (z, haar, near, 3.0 * haar + 1e-9 * z, np.eye(2) + 1e-6 * z):
            want = np.linalg.svd(v, compute_uv=False)[..., 0]
            assert_allclose(spectral_norms(v), want, rtol=2e-15, atol=0.0)
        assert spectral_norms(haar[0]).shape == ()

    @pytest.mark.parametrize("m", [1, 3])
    def test_other_sizes_match_svd(self, rng, m):
        v = rng.standard_normal((5, 7, m, m)) + 1j * rng.standard_normal((5, 7, m, m))
        assert_allclose(spectral_norms(v), np.linalg.svd(v, compute_uv=False)[..., 0],
                        rtol=1e-14)
