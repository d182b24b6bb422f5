import gc
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from germlie.errors import BudgetError, StructureError
from germlie.matrixlie import (
    MatrixLieBackend,
    bch_remainder_bound,
    bch_tail_coefficients,
    dynkin_words,
    evaluate_bch_words,
)

B2 = MatrixLieBackend(2, 8)
B3 = MatrixLieBackend(3, 8)


def reference_bch_tail_coefficients() -> np.ndarray:
    """The coefficients of -log(2 - e^t) = sum_k u^k / k, u = e^t - 1, to n = 60,
    by exact convolution powers of u: the table as first written, kept as an
    oracle for the recurrence."""
    n_max = 60
    u = [Fraction(0)] * (n_max + 1)
    for j in range(1, n_max + 1):
        u[j] = Fraction(1, math.factorial(j))
    total = [Fraction(0)] * (n_max + 1)
    power = [Fraction(0)] * (n_max + 1)
    power[0] = Fraction(1)
    for k in range(1, n_max + 1):
        nxt = [Fraction(0)] * (n_max + 1)
        for i in range(n_max + 1):
            if power[i] == 0:
                continue
            for j in range(1, n_max + 1 - i):
                nxt[i + j] += power[i] * u[j]
        power = nxt
        for n in range(n_max + 1):
            total[n] += power[n] / k
    return np.array([float(c) for c in total])


def reference_bch_words(x, y, order, bracket_fn):
    """Plan, then sum: every suffix of every word bracketed in (length, word)
    order, then the weighted words added in table order -- the evaluation as
    first written."""
    words = dynkin_words(order)
    plan = sorted({w[i:] for w, _ in words for i in range(len(w))}, key=lambda s: (len(s), s))
    args, values = (x, y), {}
    for suffix in plan:
        values[suffix] = args[suffix[0]] if len(suffix) == 1 else \
            bracket_fn(args[suffix[0]], values[suffix[1:]])
    total = None
    for word, coeff in words:
        term = coeff * values[word]
        total = term if total is None else total + term
    return total


def counting(bracket_fn):
    calls = []

    def fn(a, b):
        calls.append(1)
        return bracket_fn(a, b)
    return fn, calls


class TestWordTable:
    def test_low_order_coefficients(self):
        d = dict(dynkin_words(8))
        assert d[(0,)] == pytest.approx(1.0)
        assert d[(1,)] == pytest.approx(1.0)
        # the two order-2 words combine to [x, y] / 2
        assert d[(0, 1)] == pytest.approx(0.25)
        assert d[(1, 0)] == pytest.approx(-0.25)

    def test_vanishing_words_pruned(self):
        words = dynkin_words(8)
        for w, c in words:
            assert c != 0.0
            if len(w) >= 2:
                assert w[-1] != w[-2]

    def test_shared_read_only_table(self):
        assert dynkin_words(8) is dynkin_words(8)


class TestEvaluateWords:
    @pytest.mark.parametrize("order", range(1, 9))
    @pytest.mark.parametrize("batch", [(), (1,), (5,), (3, 4)])
    def test_bit_equal_to_plan_then_sum(self, rng, order, batch):
        x, y = (0.05 * (rng.standard_normal(batch + (2, 2))
                        + 1j * rng.standard_normal(batch + (2, 2))) for _ in range(2))
        fn, calls = counting(B2.bracket)
        ref_fn, ref_calls = counting(B2.bracket)
        got = evaluate_bch_words(x, y, order, fn)
        want = reference_bch_words(x, y, order, ref_fn)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert len(calls) == len(ref_calls)

    def test_188_brackets_at_order_8(self, rng):
        x, y = (B2.random_element(rng, 0.1) for _ in range(2))
        fn, calls = counting(B2.bracket)
        evaluate_bch_words(x, y, 8, fn)
        assert len(calls) == 188

    def test_leaves_no_reference_cycle(self, rng):
        # suffix values caught in a cycle would outlive the call until the next
        # collection: 188 stacks of every bch_pairs batch
        x, y = (B2.random_element(rng, 0.1) for _ in range(2))
        evaluate_bch_words(x, y, 8, B2.bracket)  # builds the cached word table
        gc.collect()
        gc.disable()
        try:
            evaluate_bch_words(x, y, 8, B2.bracket)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestBch:
    def test_commuting_arguments_sum_exactly(self):
        x = np.diag([0.1 + 0.02j, -0.05])
        y = np.diag([0.03, 0.07j])
        assert np.array_equal(B2.bch(x, y), x + y)

    def test_right_unit(self, rng):
        x = B2.random_element(rng, 0.2)
        assert_allclose(B2.bch(x, np.zeros((2, 2))), x, rtol=0, atol=0)

    def test_inverse_law_exact(self, rng):
        x = B2.random_element(rng, 0.2)
        assert np.all(B2.bch(x, -x) == 0)

    def test_against_matrix_log_oracle(self, rng):
        worst = 0.0
        for _ in range(50):
            x = B2.random_element(rng, 0.15)
            y = B2.random_element(rng, 0.15)
            z, rem = B2.bch_with_remainder(x, y)
            oracle = scipy.linalg.logm(scipy.linalg.expm(x) @ scipy.linalg.expm(y))
            err = float(B2.norm(z - oracle))
            worst = max(worst, err)
            assert err <= rem + 1e-12
        assert worst < 1e-9

    def test_3x3_backend(self, rng):
        x = B3.random_element(rng, 0.1)
        y = B3.random_element(rng, 0.1)
        z = B3.bch(x, y)
        oracle = scipy.linalg.logm(scipy.linalg.expm(x) @ scipy.linalg.expm(y))
        assert float(B3.norm(z - oracle)) < 1e-9

    def test_budget_enforced(self, rng):
        x = B2.random_element(rng, 0.5)
        y = B2.random_element(rng, 0.5)
        with pytest.raises(BudgetError):
            B2.bch(x, y)

    def test_batched_evaluation(self, rng):
        xs = np.stack([B2.random_element(rng, 0.1) for _ in range(8)])
        ys = np.stack([B2.random_element(rng, 0.1) for _ in range(8)])
        zs = B2.bch(xs, ys)
        assert zs.shape == (8, 2, 2)
        one = B2.bch(xs[3], ys[3])
        assert_allclose(zs[3], one, rtol=0, atol=0)


class TestLocalGroupAxioms:
    def test_associativity_within_remainder(self, rng):
        for _ in range(20):
            x = B2.random_element(rng, 0.06)
            y = B2.random_element(rng, 0.06)
            z = B2.random_element(rng, 0.06)
            lhs, r1 = B2.bch_with_remainder(B2.bch(x, y), z)
            rhs, r2 = B2.bch_with_remainder(x, B2.bch(y, z))
            inner = max(bch_remainder_bound(float(B2.norm(x) + B2.norm(y)), 8),
                        bch_remainder_bound(float(B2.norm(y) + B2.norm(z)), 8))
            assert float(B2.norm(lhs - rhs)) <= r1 + r2 + 2 * inner + 1e-9

    def test_units_and_inverses(self, rng):
        x = B2.random_element(rng, 0.2)
        zero = np.zeros((2, 2))
        assert np.array_equal(B2.bch(x, zero), x)
        assert np.array_equal(B2.bch(zero, x), x)
        assert np.all(B2.bch(x, -x) == 0)
        assert np.all(B2.bch(-x, x) == 0)

    def test_inverse_symmetry(self, rng):
        # (x, y) in the domain implies (-y, -x) is, with product -bch(x, y)
        x = B2.random_element(rng, 0.1)
        y = B2.random_element(rng, 0.1)
        z = B2.bch(x, y)
        w = B2.bch(-y, -x)
        assert float(B2.norm(z + w)) < 1e-12

    def test_exp_homomorphism(self, rng):
        for _ in range(10):
            x = B2.random_element(rng, 0.1)
            y = B2.random_element(rng, 0.1)
            lhs = B2.exp(B2.bch(x, y))
            rhs = B2.exp(x) @ B2.exp(y)
            assert float(B2.norm(lhs - rhs)) < 1e-9


class TestCharts:
    def test_exp_log_trivials(self, rng):
        ident = np.eye(2)
        assert_allclose(B2.exp(np.zeros((2, 2))), ident, rtol=0, atol=1e-15)
        assert_allclose(B2.log(ident), np.zeros((2, 2)), rtol=0, atol=1e-15)
        x = B2.random_element(rng, 0.3)
        assert_allclose(B2.ad(ident, x), x, rtol=0, atol=0)

    def test_nilpotent_exp_is_polynomial(self):
        x = np.array([[0.0, 0.7], [0.0, 0.0]])
        assert_allclose(B2.exp(x), np.eye(2) + x, rtol=0, atol=1e-15)

    def test_log_exp_identity(self, rng):
        for _ in range(20):
            x = B2.random_element(rng, 0.5)
            assert float(B2.norm(B2.log(B2.exp(x)) - x)) < 1e-12

    def test_log_branch_budget(self):
        g = np.diag([-1.0, 2.0])
        with pytest.raises(BudgetError, match="branch"):
            B2.log(g)

    @pytest.mark.parametrize("g", [[[1.0, 2.0], [0.0, 0.0]],
                                   [[1.0, 2.0], [2.0, 4.0]],
                                   [[0.0, 1.0], [0.0, 0.0]]])
    def test_log_rejects_singular(self, g):
        # eigenvalue exactly 0, at rounding level (1e-32) and a double 0
        with pytest.raises(BudgetError, match="branch"):
            B2.log(np.array(g))

    def test_ad_matches_conjugated_flow(self, rng):
        # exp(t ad(g, x)) = g exp(t x) g^{-1} at t = 0.1
        g = B2.exp(B2.random_element(rng, 0.2))
        x = B2.random_element(rng, 0.3)
        t = 0.1
        lhs = B2.exp(t * B2.ad(g, x))
        rhs = g @ B2.exp(t * x) @ np.linalg.inv(g)
        assert float(B2.norm(lhs - rhs)) < 1e-10


class TestNormAndRemainder:
    def test_bracket_compatibility_sampled(self, rng):
        for _ in range(200):
            x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            assert float(B2.norm(B2.bracket(x, y))) <= \
                float(B2.norm(x)) * float(B2.norm(y)) + 1e-12

    def test_submultiplicative(self, rng):
        for _ in range(100):
            x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            assert float(B3.norm(x @ y)) <= float(B3.norm(x)) * float(B3.norm(y)) + 1e-12

    def test_majorant_series_starts_like_bch(self):
        a = bch_tail_coefficients()
        # -log(2 - e^t) = t + t^2 + ... : derivative 1 at 0
        assert a[0] == pytest.approx(0.0)
        assert a[1] == pytest.approx(1.0)
        assert np.all(a >= 0)

    def test_majorant_table_matches_composition_oracle(self):
        assert bch_tail_coefficients().tobytes() == reference_bch_tail_coefficients().tobytes()

    def test_majorant_low_coefficients_exact(self):
        a = bch_tail_coefficients()
        want = [Fraction(0), Fraction(1), Fraction(1), Fraction(1), Fraction(13, 12),
                Fraction(5, 4), Fraction(541, 360), Fraction(223, 120)]
        assert list(a[:8]) == [float(c) for c in want]

    def test_remainder_monotone_decreasing_in_order(self):
        s = 0.3
        rems = [bch_remainder_bound(s, order) for order in (4, 6, 8, 10)]
        assert all(r2 < r1 for r1, r2 in zip(rems, rems[1:]))
        assert math.isinf(bch_remainder_bound(0.8, 8))

    def test_invalid_order_is_structure_error(self):
        with pytest.raises(StructureError, match="bch_order"):
            MatrixLieBackend(2, 0)
