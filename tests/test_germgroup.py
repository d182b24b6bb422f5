from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from germlie import germgroup, series
from germlie.errors import BudgetError, StructureError
from germlie.germgroup import (
    GermGroupElement,
    GermLieGroup,
    LocalGermElement,
    element_from_matrix_poly,
    random_algebra_element,
    random_group_element,
)
from germlie.evolution import evol, random_spline_curve
from germlie.germspace import BHolElement, GermSpace, _align, bond, germ_distance
from germlie.series import SeriesStack, matrix_space


def sample_pts(group, n=20):
    return group.space.sample_points(1, n, interior=0.4)


def reference_margin(el):
    """The Neumann margin of ``GermGroupElement`` computed series by series."""
    space, worst = el.parent.space, np.inf
    for s in el.reps:
        try:
            c0_inv = np.linalg.inv(s.coeffs[0])
        except np.linalg.LinAlgError:
            return -np.inf
        centered = float(np.sum(s.majorant_coeffs()[1:])) + s.tail_bound
        q = space.submult_factor * float(space.norm(c0_inv)) * centered
        worst = min(worst, 1.0 - q)
    return worst


def near_identity_element(space, level, rng, scale):
    """Identity plus a random perturbation, per-anchor radii and tails varying."""
    m, n, rows = space.space.dim, space.degree_bound, len(space.anchors)
    shape = (rows, n + 1, m, m)
    coeffs = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
    coeffs[:, 0] += np.eye(m)
    radius = space.radius(level) * rng.uniform(0.5, 1.0, rows)
    return BHolElement(space, level, coeffs, radius, rng.uniform(0.0, 1e-3, rows))


BCH_REFERENCE = Path(__file__).with_name("data") / "bch_pairs_reference.npz"


def bch_reference_pairs(group):
    """34 pairs of full-degree algebra germs on ``group`` (the ``germ_group``
    fixture's), radii, tails and majorants varying by row, from a fixed seed.

    ``BCH_REFERENCE`` holds ``coeffs`` and ``tail`` of ``bch_pairs`` on these
    pairs, stacked over pairs and anchors, as the block-row product kernel
    (before the lower block Toeplitz one) computed them."""
    rng = np.random.default_rng(4177)
    space = group.space
    shape = (len(space.anchors), space.degree_bound + 1, space.space.dim, space.space.dim)

    def draw():
        coeffs = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
            * 0.6 ** np.arange(shape[1])[:, None, None]
        radius = space.radius(1) * rng.uniform(0.5, 1.0, shape[0])
        el = BHolElement(space, 1, coeffs, radius, rng.choice([0.0, 1e-9, 1e-6], shape[0]))
        return el.scale(rng.uniform(0.01, 0.3) / el.norm_upper)

    return [(draw(), draw()) for _ in range(34)]


class TestLocalProduct:
    def test_zero_is_right_unit(self, germ_group, rng):
        x = random_algebra_element(germ_group, rng, 0.08)
        zero = germ_group.zero(1)
        assert germ_distance(germ_group.germ_bch(x, zero), x) == 0.0
        assert germ_distance(germ_group.germ_bch(zero, x), x) == 0.0

    def test_inverse_law_exact_coefficients(self, germ_group, rng):
        x = random_algebra_element(germ_group, rng, 0.1)
        out = germ_group.germ_bch(x, x.scale(-1.0))
        assert germ_distance(out, germ_group.zero(1)) == 0.0

    def test_bch_pairs_of_no_pairs_is_empty(self, germ_group):
        assert germ_group.bch_pairs([]) == []

    @pytest.mark.parametrize("batch", [3, 34])
    def test_unit_and_inverse_laws_exact_in_batches(self, germ_group, rng, batch):
        # row i of each call is (x, 0), (0, x), (x, -x) or an ordinary pair,
        # the kinds rotated so that every kind sits at every row offset
        zero = germ_group.zero(1)
        for offset in range(4):
            xs = [random_algebra_element(germ_group, rng, 0.1 * rng.uniform(0.2, 1.0))
                  for _ in range(batch)]
            kinds = [(i + offset) % 4 for i in range(batch)]
            pairs = [[(x, zero), (zero, x), (x, x.scale(-1.0)),
                      (x, random_algebra_element(germ_group, rng, 0.05))][k]
                     for x, k in zip(xs, kinds)]
            for x, k, z in zip(xs, kinds, germ_group.bch_pairs(pairs)):
                if k < 2:
                    assert np.array_equal(z.coeffs, x.coeffs)
                elif k == 2:
                    assert np.all(z.coeffs == 0)

    def test_commuting_diagonal_germs_add(self, germ_group):
        d1 = element_from_matrix_poly(germ_group.space,
                                      [np.diag([0.05, -0.02]), np.diag([0.01, 0.02])], 1)
        d2 = element_from_matrix_poly(germ_group.space,
                                      [np.diag([-0.03, 0.04]), np.diag([0.02, -0.01])], 1)
        out = germ_group.germ_bch(d1, d2)
        assert germ_distance(out, d1 + d2) < 1e-15

    def test_pointwise_matrix_oracle(self, germ_group, rng):
        pts = sample_pts(germ_group)
        for _ in range(10):
            x = random_algebra_element(germ_group, rng, 0.05)
            y = random_algebra_element(germ_group, rng, 0.05)
            z = germ_group.germ_bch(x, y)
            oracle = germ_group.backend.bch(x.eval(pts), y.eval(pts))
            assert np.max(germ_group.backend.norm(z.eval(pts) - oracle)) < 1e-9

    def test_budget_violation(self, germ_group, rng):
        x = random_algebra_element(germ_group, rng, 0.4)
        y = random_algebra_element(germ_group, rng, 0.4)
        with pytest.raises(BudgetError, match="budget"):
            germ_group.germ_bch(x, y)

    def test_associativity_at_samples(self, germ_group, rng):
        pts = sample_pts(germ_group)
        for _ in range(5):
            a, b, c = (random_algebra_element(germ_group, rng, 0.04) for _ in range(3))
            lhs = germ_group.germ_bch(germ_group.germ_bch(a, b), c)
            rhs = germ_group.germ_bch(a, germ_group.germ_bch(b, c))
            assert np.max(germ_group.backend.norm(lhs.eval(pts) - rhs.eval(pts))) < 1e-8

    def test_bch_pairs_matches_germ_bch_on_large_batches(self, germ_group, rng):
        # 70 pairs over two anchors stack 140 series, more than the small
        # batches that single germ_bch calls run on
        pairs = [(random_algebra_element(germ_group, rng, 0.04 * rng.uniform(0.3, 1.0)),
                  random_algebra_element(germ_group, rng, 0.04 * rng.uniform(0.3, 1.0)))
                 for _ in range(70)]
        batched = germ_group.bch_pairs(pairs)
        assert len(batched) == len(pairs)
        for (x, y), z in zip(pairs, batched):
            ref = germ_group.germ_bch(x, y)
            assert z.level == ref.level
            for s, r in zip(z.reps, ref.reps):
                assert_allclose(s.coeffs, r.coeffs, rtol=1e-12, atol=1e-16)
                assert s.tail_bound == pytest.approx(r.tail_bound, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("batch", [1, 3, 34])
    def test_bch_pairs_gathers_each_letter_operator_once(self, germ_group, rng, monkeypatch,
                                                         batch):
        # 188 brackets of 376 products: each letter gathers its operator and
        # its transpose's once, and no bracket value gathers one
        counts = {"gathers": 0, "muls": 0, "brackets": 0}
        seen = {}
        gather, mul, bracket = series._block_toeplitz, SeriesStack.mul, SeriesStack.bracket

        def counted_gather(b):
            counts["gathers"] += 1
            return gather(b)

        def counted_mul(a, b):
            counts["muls"] += 1
            return mul(a, b)

        def counted_bracket(a, b):
            counts["brackets"] += 1
            out = bracket(a, b)
            seen.update({id(s): s for s in (a, b, out)})
            if not letters:  # the first bracket is [x, y]
                letters.extend((a, b))
            return out

        letters = []
        monkeypatch.setattr(series, "_block_toeplitz", counted_gather)
        monkeypatch.setattr(SeriesStack, "mul", counted_mul)
        monkeypatch.setattr(SeriesStack, "bracket", counted_bracket)
        pairs = [tuple(random_algebra_element(germ_group, rng, 0.03) for _ in range(2))
                 for _ in range(batch)]
        germ_group.bch_pairs(pairs)
        assert counts == {"gathers": 4, "muls": 376, "brackets": 188}
        assert all(s._op is not None and s._op_t is not None for s in letters)
        kept = {i for i, s in seen.items() if s._op is not None or s._op_t is not None}
        assert kept == {id(s) for s in letters}

    @pytest.mark.parametrize("batch", [1, 3, 34])
    def test_bch_pairs_compute_each_stacks_majorant_terms_once(self, germ_group, rng,
                                                               monkeypatch, batch):
        # the letters share one radius array and every product hands it on:
        # one power table in all, and each factor's weights at most once
        weighed, powers, shared = [], [], []
        weights, pw, mul = SeriesStack._weights, SeriesStack._powers, SeriesStack.mul

        def counted_weights(s):
            if s._w is None:
                weighed.append(s)  # kept alive, so ids stay distinct
            return weights(s)

        def counted_powers(s):
            if s._pw is None:
                powers.append(s)
            return pw(s)

        def counted_mul(a, b):
            shared.append(a.radius is b.radius)
            return mul(a, b)

        monkeypatch.setattr(SeriesStack, "_weights", counted_weights)
        monkeypatch.setattr(SeriesStack, "_powers", counted_powers)
        monkeypatch.setattr(SeriesStack, "mul", counted_mul)
        pairs = [tuple(random_algebra_element(germ_group, rng, 0.03) for _ in range(2))
                 for _ in range(batch)]
        germ_group.bch_pairs(pairs)
        assert len(powers) == 1
        assert shared == [True] * 376
        assert len({id(s) for s in weighed}) == len(weighed) <= 2 + 188

    @pytest.mark.parametrize("batch", [1, 3, 34])
    def test_bch_pairs_match_stored_reference(self, germ_group, batch):
        rows = batch * len(germ_group.space.anchors)
        with np.load(BCH_REFERENCE) as ref:
            ref_coeffs, ref_tail = ref["coeffs"][:rows], ref["tail"][:rows]
        out = germ_group.bch_pairs(bch_reference_pairs(germ_group)[:batch])
        for got, want in zip(np.concatenate([z.coeffs for z in out]), ref_coeffs):
            assert_allclose(got, want, rtol=1e-14, atol=1e-14 * np.max(np.abs(want)))
        assert_allclose(np.concatenate([z.tail for z in out]), ref_tail, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("batch", [1, 3, 34])
    def test_bch_pairs_of_linear_germs_match_pointwise_bch(self, germ_group, rng, batch):
        # degree-1 letters: the order-8 Dynkin polynomial has degree 8, below
        # the degree bound 12, so no product truncates and the pointwise BCH
        # of the values is the same polynomial
        def draw():
            el = element_from_matrix_poly(germ_group.space, [
                rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                for _ in range(2)], 1)
            return el.scale(rng.uniform(0.01, 0.3) / el.norm_upper)

        pairs = [(draw(), draw()) for _ in range(batch)]
        pts = sample_pts(germ_group)
        for (x, y), z in zip(pairs, germ_group.bch_pairs(pairs)):
            want = germ_group.backend.bch(x.eval(pts), y.eval(pts))
            assert_allclose(z.eval(pts), want, rtol=0.0, atol=1e-14 * np.max(np.abs(want)))

    def test_bonded_arguments_align(self, germ_group, rng):
        x = random_algebra_element(germ_group, rng, 0.05, level=1)
        y = bond(random_algebra_element(germ_group, rng, 0.05, level=1), 2)
        out = germ_group.germ_bch(x, y)
        assert out.level == 2

    def test_local_element_budget_certificate(self, germ_group, rng):
        el = random_algebra_element(germ_group, rng, 0.9)
        with pytest.raises(BudgetError):
            LocalGermElement(el, germ_group.local_budget)
        ok = random_algebra_element(germ_group, rng, 0.5 * germ_group.local_budget)
        assert LocalGermElement(ok, germ_group.local_budget).level == 1


class TestCharts:
    def test_exp_of_zero_is_identity(self, germ_group):
        out = germ_group.exp_germ(germ_group.zero(1))
        assert germ_distance(out.element, germ_group.identity(1).element) < 1e-15

    def test_log_exp_roundtrip(self, germ_group, rng):
        for _ in range(10):
            eta = random_algebra_element(germ_group, rng, 0.4 * rng.uniform(0.2, 1.0))
            assert germ_group.in_injectivity_domain(eta)
            back = germ_group.log_germ(germ_group.exp_germ(eta))
            assert germ_distance(eta, back) < 1e-9

    def test_exp_log_roundtrip_on_group(self, germ_group, rng):
        g = random_group_element(germ_group, rng, 0.3)
        again = germ_group.exp_germ(germ_group.log_germ(g))
        assert germ_distance(g.element, again.element) < 1e-9

    def test_log_bonds_deeper_when_needed(self, germ_group):
        # values vanish on the anchor set but the derivative is large: the
        # branch budget fails at level 1 and certifies after bonding deeper
        a2 = germ_group.space.anchors[1]
        big = element_from_matrix_poly(
            germ_group.space,
            [np.zeros((2, 2)), -8.0 * a2 * np.eye(2), 8.0 * np.eye(2)], 1)
        assert big.norm_upper > 1.0
        g = germ_group.exp_germ(big)
        back = germ_group.log_germ(g)
        assert back.level > 1
        assert germ_distance(back, bond(big, back.level)) < 1e-9

    def test_log_branch_unattainable(self, germ_group):
        g = GermGroupElement(germ_group.space.constant_element(3.0 * np.eye(2), 1))
        with pytest.raises(BudgetError, match="branch"):
            germ_group.log_germ(g)

    def test_power_law(self, germ_group, rng):
        pts = sample_pts(germ_group)
        x = random_algebra_element(germ_group, rng, 0.05)
        g = germ_group.exp_germ(x)
        for n in (2, 3, 4):
            lhs = germ_group.power(g, n)
            rhs = germ_group.exp_germ(x.scale(float(n)))
            assert np.max(germ_group.backend.norm(lhs.eval(pts) - rhs.eval(pts))) < 1e-9

    def test_homomorphism_on_local_pairs(self, germ_group, rng):
        pts = sample_pts(germ_group)
        for _ in range(5):
            x = random_algebra_element(germ_group, rng, 0.05)
            y = random_algebra_element(germ_group, rng, 0.05)
            lhs = germ_group.exp_germ(germ_group.germ_bch(x, y))
            rhs = germ_group.mul(germ_group.exp_germ(x), germ_group.exp_germ(y))
            assert np.max(germ_group.backend.norm(lhs.eval(pts) - rhs.eval(pts))) < 1e-9


class TestGroupOps:
    def test_inverse_gives_identity(self, germ_group, rng):
        pts = sample_pts(germ_group)
        g = random_group_element(germ_group, rng, 0.3)
        prod = germ_group.mul(g, germ_group.inv(g))
        ident = germ_group.identity(prod.level)
        assert germ_distance(prod.element, ident.element) < 1e-9
        assert np.max(germ_group.backend.norm(
            prod.eval(pts) - np.eye(2))) < 1e-9

    def test_inverse_bonds_deeper_when_its_certificate_needs_it(self, germ_group):
        # level-0 germs whose inverse certifies only on a deeper level
        rng = np.random.default_rng(1)
        deeper = 0
        for budget in (0.5, 0.9, 1.2, 1.6, 2.0):
            for _ in range(40):
                g = random_group_element(germ_group, rng, budget, level=0)
                ginv = germ_group.inv(g)
                deeper += ginv.level > g.level
                pts = germ_group.space.sample_points(ginv.level, 20, interior=0.4)
                prod = np.matmul(g.eval(pts), ginv.eval(pts))
                assert np.max(germ_group.backend.norm(prod - np.eye(2))) < 1e-9
        assert deeper > 0

    def test_charts_and_inverse_stack_all_anchors(self, germ_group, rng, monkeypatch):
        g = random_group_element(germ_group, rng, 0.3)
        x = random_algebra_element(germ_group, rng, 0.2)
        stacked = []
        for name in ("exp", "log", "invert"):
            def counted(self, op=getattr(SeriesStack, name)):
                stacked.append(len(self.tail))
                return op(self)

            monkeypatch.setattr(SeriesStack, name, counted)

        def no_multiply(*args):
            raise AssertionError("series.multiply called")

        monkeypatch.setattr(germgroup, "series_multiply", no_multiply)
        monkeypatch.setattr(series, "multiply", no_multiply)
        germ_group.log_germ(germ_group.exp_germ(x))
        germ_group.inv(g)
        assert stacked == [len(germ_group.space.anchors)] * 3

    def test_identity_is_two_sided_unit(self, germ_group, rng):
        g = random_group_element(germ_group, rng, 0.3)
        e = germ_group.identity(g.level)
        assert germ_distance(germ_group.mul(g, e).element, g.element) < 1e-14
        assert germ_distance(germ_group.mul(e, g).element, g.element) < 1e-14

    def test_associativity_at_samples(self, germ_group, rng):
        pts = sample_pts(germ_group)
        a, b, c = (random_group_element(germ_group, rng, 0.2) for _ in range(3))
        lhs = germ_group.mul(germ_group.mul(a, b), c)
        rhs = germ_group.mul(a, germ_group.mul(b, c))
        assert np.max(germ_group.backend.norm(lhs.eval(pts) - rhs.eval(pts))) < 1e-9

    def test_certificate_rejects_singular_values(self, germ_group):
        sing = germ_group.space.constant_element(np.diag([1.0, 0.0]), 1)
        with pytest.raises(BudgetError, match="certificate"):
            GermGroupElement(sing)

    def test_certificate_matches_per_series_margin(self, rng):
        space = GermSpace(anchors=(0.0, 0.3 + 0.2j, -0.4), ratio=0.1, space=matrix_space(3),
                          degree_bound=6)
        for scale in (0.01, 0.1, 0.3):
            for _ in range(5):
                el = near_identity_element(space, 1, rng, scale)
                margin = reference_margin(el)
                if margin > 0:
                    assert GermGroupElement(el).cert_margin == margin
                else:
                    with pytest.raises(BudgetError, match="certificate"):
                        GermGroupElement(el)

    def test_certificate_of_trajectory_nodes_matches(self, germ_group):
        # the nodes are certified in one batch over all 97 of them
        rng = np.random.default_rng(3)
        for _ in range(4):
            result = evol(random_spline_curve(germ_group, rng), 96, error_estimate=False)
            assert len(result.trajectory) == 97
            for node in result.trajectory:
                assert node.cert_margin == reference_margin(node.element)

    def test_batched_certificate_fails_like_one_element(self, germ_group, rng):
        space = germ_group.space
        good = [near_identity_element(space, 1, rng, 1e-3) for _ in range(3)]
        coeffs = np.array(good[0].coeffs)
        coeffs[1, 0] = np.diag([1.0, 0.0])
        sing = BHolElement(space, 1, coeffs, good[0].radius, good[0].tail)
        coeffs = np.array(good[1].coeffs)
        coeffs[:, 1] += 10.0 * np.eye(2) / good[1].radius[:, None, None]
        short = BHolElement(space, 1, coeffs, good[1].radius, good[1].tail)
        assert reference_margin(sing) == -np.inf and reference_margin(short) <= 0
        messages = {}
        for bad in (sing, short):
            with pytest.raises(BudgetError, match="certificate") as one:
                GermGroupElement(bad)
            messages[id(bad)] = str(one.value)
            with pytest.raises(BudgetError) as batch:
                germgroup._certified([good[0], bad, good[1]])
            assert str(batch.value) == messages[id(bad)]
        # the singular node makes the stacked inverse raise LinAlgError
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(np.concatenate([good[0].coeffs, sing.coeffs])[:, 0])
        margins = germgroup._invertibility_margins([good[0], sing, short, good[2]])
        want = [reference_margin(el) for el in (good[0], sing, short, good[2])]
        assert margins.tolist() == want
        for first, second in ((sing, short), (short, sing)):
            with pytest.raises(BudgetError) as batch:
                germgroup._certified([good[2], first, second])
            assert str(batch.value) == messages[id(first)]
        nodes = germgroup._certified(good)
        assert [g.cert_margin for g in nodes] == [reference_margin(el) for el in good]

    def test_certificate_rejects_one_singular_anchor(self, germ_group, rng):
        el = near_identity_element(germ_group.space, 1, rng, 1e-3)
        coeffs = np.array(el.coeffs)
        coeffs[1, 0] = np.diag([1.0, 0.0])
        sing = BHolElement(el.parent, el.level, coeffs, el.radius, el.tail)
        assert reference_margin(sing) == -np.inf
        with pytest.raises(BudgetError, match="certificate"):
            GermGroupElement(sing)

    def test_fixture_serialization(self, germ_group, rng):
        g = random_group_element(germ_group, rng, 0.2)
        doc = g.to_json()
        assert doc["level"] == g.level
        cert = doc["certificate"]
        assert cert["kind"] == "neumann" and 0 < cert["margin"] <= 1
        assert len(doc["reps"]) == 2


class TestAdjoint:
    def test_identity_acts_trivially(self, germ_group, rng):
        eta = random_algebra_element(germ_group, rng, 0.2)
        out, bound = germ_group.adjoint(germ_group.identity(1), eta)
        assert germ_distance(out, eta) < 1e-12
        assert bound >= 1.0

    def test_constant_group_element_reduces_to_matrix_ad(self, germ_group, rng):
        g0 = germ_group.backend.exp(germ_group.backend.random_element(rng, 0.3))
        gamma = GermGroupElement(germ_group.space.constant_element(g0, 1))
        eta = random_algebra_element(germ_group, rng, 0.2)
        out, _ = germ_group.adjoint(gamma, eta)
        pts = sample_pts(germ_group)
        oracle = germ_group.backend.ad(g0, eta.eval(pts))
        assert np.max(germ_group.backend.norm(out.eval(pts) - oracle)) < 1e-12

    def test_conjugation_identity(self, germ_group, rng):
        pts = sample_pts(germ_group)
        for _ in range(10):
            gamma = random_group_element(germ_group, rng, 0.25)
            eta = random_algebra_element(germ_group, rng, 0.15)
            ad_eta, _ = germ_group.adjoint(gamma, eta)
            lhs = germ_group.mul(germ_group.mul(gamma, germ_group.exp_germ(eta)),
                                 germ_group.inv(gamma))
            rhs = germ_group.exp_germ(ad_eta)
            assert np.max(germ_group.backend.norm(lhs.eval(pts) - rhs.eval(pts))) < 1e-9

    def test_linearity(self, germ_group, rng):
        gamma = random_group_element(germ_group, rng, 0.25)
        eta = random_algebra_element(germ_group, rng, 0.1)
        xi = random_algebra_element(germ_group, rng, 0.1)
        a, b = 0.7 - 0.2j, -1.3 + 0.4j
        lhs, _ = germ_group.adjoint(gamma, eta.scale(a) + xi.scale(b))
        r1, _ = germ_group.adjoint(gamma, eta)
        r2, _ = germ_group.adjoint(gamma, xi)
        rhs = r1.scale(a) + r2.scale(b)
        assert germ_distance(lhs, rhs) < 1e-10

    def test_boundedness_certificate(self, germ_group, rng):
        for _ in range(100):
            gamma = random_group_element(germ_group, rng, 0.3)
            eta = random_algebra_element(germ_group, rng, 0.3 * rng.uniform(0.05, 1))
            out, bound = germ_group.adjoint(gamma, eta)
            assert out.norm_upper <= bound * eta.norm_upper + 1e-12

    def test_group_action_property(self, germ_group, rng):
        pts = sample_pts(germ_group)
        gamma = random_group_element(germ_group, rng, 0.2)
        delta = random_group_element(germ_group, rng, 0.2)
        eta = random_algebra_element(germ_group, rng, 0.15)
        lhs, _ = germ_group.adjoint(germ_group.mul(gamma, delta), eta)
        inner, _ = germ_group.adjoint(delta, eta)
        rhs, _ = germ_group.adjoint(gamma, inner)
        assert np.max(germ_group.backend.norm(lhs.eval(pts) - rhs.eval(pts))) < 1e-9

    def test_two_stack_products_bitwise_equal_to_per_anchor_products(self, germ_group, rng,
                                                                    monkeypatch):
        # the conjugation runs two SeriesStack.mul calls on the aligned stacks
        # and gives the bits of series.multiply anchor by anchor
        def per_anchor(gamma, eta):
            ge, ee, gie = _align(gamma.element, eta, germ_group.inv(gamma).element)
            return ge._zip(ee, series.multiply)._zip(gie, series.multiply)

        cases = [(random_group_element(germ_group, rng, 0.3 * rng.uniform(0.1, 1.0),
                                       int(rng.integers(0, 3))),
                  random_algebra_element(germ_group, rng, 0.3 * rng.uniform(0.05, 1.0),
                                         int(rng.integers(0, 3)))) for _ in range(30)]
        # inverses that bond deeper, and an eta whose anchors have different radii
        cases += [(random_group_element(germ_group, rng, budget, level=0),
                   random_algebra_element(germ_group, rng, 0.1, level=0))
                  for budget in (0.9, 1.2, 1.6)]
        gamma, eta = cases[0]
        cases.append((gamma, BHolElement(eta.parent, eta.level, eta.coeffs,
                                         eta.radius * np.array([1.0, 0.8]), eta.tail)))
        wants = [per_anchor(gamma, eta) for gamma, eta in cases]
        rows, mul = [], SeriesStack.mul

        def counted_mul(a, b):
            rows.append(len(a.tail))
            return mul(a, b)

        monkeypatch.setattr(SeriesStack, "mul", counted_mul)
        for (gamma, eta), want in zip(cases, wants):
            del rows[:]
            got, _ = germ_group.adjoint(gamma, eta)
            assert rows == [len(germ_group.space.anchors)] * 2
            assert got.level == want.level
            for field in ("coeffs", "radius", "tail"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes()


class TestStructure:
    def test_group_needs_matrix_coefficients(self):
        scalar = GermSpace(anchors=(0.0,), ratio=0.1)
        with pytest.raises(StructureError):
            GermLieGroup(scalar)

    def test_generator_respects_budget(self, germ_group, rng):
        el = random_algebra_element(germ_group, rng, 0.123)
        assert el.norm_upper == pytest.approx(0.123)

    def test_matrix_poly_elements_cohere(self, germ_group, rng):
        # re-expansion of one polynomial around both anchors: coherent at level 0
        coeffs = [rng.standard_normal((2, 2)) * 0.1 for _ in range(3)]
        el = element_from_matrix_poly(germ_group.space, coeffs, 0)
        assert el.coherence_defect() < 1e-12
