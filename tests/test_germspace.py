import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from germlie import germspace
from germlie.errors import BudgetError, EvaluationError, StructureError
from germlie.germspace import (
    BHolElement,
    GermSpace,
    bond,
    compact_regularity_check,
    derivative_sups,
    factorize,
    family_convergence_check,
    germ_distance,
    germs_equal,
    in_regularity_hypothesis,
    ratio_topology_spotcheck,
    union_glue_check,
    unit_majorant_family,
)
from germlie.germspace import _stack, _unit_majorant_stack
from germlie.reports import Report
from germlie.series import (
    TruncatedSeries,
    _boundary_sups,
    linear_combination,
    matrix_space,
    scalar_space,
    vector_space,
)

RATIO_CEILING = 1.0 / (2.0 * math.e)


class TestGermSpaceStructure:
    def test_ratio_must_be_below_ceiling(self):
        with pytest.raises(BudgetError):
            GermSpace(anchors=(0.0,), ratio=0.2)
        with pytest.raises(BudgetError):
            GermSpace(anchors=(0.0,), ratio=RATIO_CEILING)

    @pytest.mark.parametrize("rho0", [math.inf, math.nan, 0.0, -1.0])
    def test_base_radius_must_be_positive_and_finite(self, rho0):
        with pytest.raises(StructureError, match="base radius"):
            GermSpace(anchors=(0.0,), base_radius=rho0)

    @pytest.mark.parametrize("anchors", [((0.0, 0.0),), (), ("a",), ((0.0, 0.0), 1.0),
                                         (0.0, math.nan), (math.inf,)],
                             ids=["pairs", "empty", "not-numbers", "ragged", "nan", "inf"])
    def test_anchors_must_be_finite_complex_numbers(self, anchors):
        with pytest.raises(StructureError, match="anchors"):
            GermSpace(anchors=anchors)

    def test_negative_degree_bound_rejected(self):
        with pytest.raises(StructureError, match="degree bound"):
            GermSpace(anchors=(0.0,), degree_bound=-1)

    def test_seminorm_scaling(self, scalar_germspace):
        # p_n = r * p_{n+1} exactly for the geometric radii
        sp = scalar_germspace
        x = 0.37 + 0.11j
        for n in range(sp.levels - 1):
            assert sp.seminorm(n, x) == pytest.approx(sp.ratio * sp.seminorm(n + 1, x))

    def test_radii_are_geometric(self, scalar_germspace):
        sp = scalar_germspace
        for n in range(sp.levels - 1):
            assert sp.radius(n + 1) == pytest.approx(sp.ratio * sp.radius(n))


def reference_sample_points(space, level, count, interior=0.5):
    """The per-anchor loop first written: ceil(count / anchors) points per
    anchor, anchor by anchor, cut to ``count``."""
    rho = space.radius(level) * interior
    per = -(-count // len(space.anchors))
    pts = []
    for i, a in enumerate(space.anchors):
        theta = 2 * np.pi * (np.arange(per) + 0.13 * (i + 1)) / per
        rr = rho * (0.35 + 0.65 * ((np.arange(per) * 0.618034 + 0.21 * i) % 1.0))
        pts.append(a + rr * np.exp(1j * theta))
    return np.concatenate(pts)[:count]


class TestSamplePoints:
    @pytest.mark.parametrize("anchors", [(0.0,), (0.0, 1.5 + 0.5j), (0.0, 0.4 + 0.1j, -0.3j)],
                             ids=["one", "two", "three"])
    @pytest.mark.parametrize("count", [1, 5, 6, 7, 20, 24])
    def test_bit_equal_to_the_per_anchor_loop(self, anchors, count):
        sp = GermSpace(anchors=anchors, ratio=0.1, levels=4)
        for level, interior in ((0, 0.5), (2, 0.4)):
            got = sp.sample_points(level, count, interior)
            want = reference_sample_points(sp, level, count, interior)
            assert got.shape == want.shape == (count,)
            assert got.tobytes() == want.tobytes()


class TestBonding:
    def test_identity_bonding(self, scalar_germspace, rng):
        el = unit_majorant_family(scalar_germspace, 1, rng, 4)[-1]
        assert bond(el, 1) is el

    def test_constant_norm_preserved(self, scalar_germspace):
        el = scalar_germspace.constant_element(0.7, 0)
        assert bond(el, 3).norm_upper == pytest.approx(el.norm_upper)

    def test_contractivity_sweep(self, scalar_germspace, rng):
        fam = unit_majorant_family(scalar_germspace, 1, rng, 32)
        for _ in range(1000):
            w = rng.standard_normal(len(fam))
            el = fam[0].scale(w[0])
            for wi, f in zip(w[1:], fam[1:]):
                el = el + f.scale(wi)
            for target in (2, 3, 4):
                assert bond(el, target).norm_upper <= el.norm_upper * (1 + 1e-12)

    def test_upward_bonding_rejected(self, scalar_germspace, rng):
        el = unit_majorant_family(scalar_germspace, 2, rng, 2)[0]
        with pytest.raises(StructureError):
            bond(el, 1)

    def test_germ_equality_level_free(self, scalar_germspace):
        # bond then compare equals compare then bond
        el1 = scalar_germspace.constant_element(0.5, 1)
        el3 = scalar_germspace.constant_element(0.5, 3)
        assert germs_equal(el1, el3)
        assert germ_distance(bond(el1, 3), el3) == pytest.approx(0.0, abs=1e-15)


class TestFactorize:
    def test_constant(self, scalar_germspace):
        el = factorize(scalar_germspace, lambda z: 2.0 - 1.0j, 0)
        assert el.norm_upper == pytest.approx(abs(2.0 - 1.0j), rel=1e-12)

    def test_exp_taylor_coefficients(self):
        sp = GermSpace(anchors=(0.0,), base_radius=1.0, ratio=0.1, levels=4)
        el = factorize(sp, np.exp, 0)
        expect = np.array([1.0 / math.factorial(k) for k in range(13)])
        assert_allclose(el.reps[0].coeffs, expect, rtol=0, atol=1e-10)

    def test_moebius_composed_polynomial(self, rng):
        # bounded map: polynomial of a Moebius transform with far pole
        sp = GermSpace(anchors=(0.0, 0.4 + 0.1j), base_radius=1.0, ratio=0.1, levels=4,
                       degree_bound=16)
        coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)

        def f(z):
            w = z / (z - 4.0)
            return np.polyval(coeffs[::-1], w)

        el = factorize(sp, f, 0)
        pts = sp.sample_points(0, 100, interior=0.3)
        want = np.array([f(z) for z in pts])
        assert np.max(np.abs(el.eval(pts) - want)) < 1e-8
        # isometry within the certified tail at the certified radius
        tail = max(s.tail_bound for s in el.reps)
        rho = el.reps[0].radius
        circle = pts[:0]
        for a in sp.anchors:
            circle = np.concatenate([circle, a + rho * np.exp(
                2j * np.pi * np.arange(128) / 128)])
        f_sup = np.max(np.abs(np.array([f(z) for z in circle])))
        assert abs(el.sample_sup(128) - f_sup) <= tail + 1e-8

    def test_one_array_call_per_circle_and_probe(self, scalar_germspace):
        shapes = []

        def counted_exp(z):
            shapes.append(np.shape(z))
            return np.exp(z)

        el = factorize(scalar_germspace, counted_exp, 0)
        assert len(shapes) == 3 * len(scalar_germspace.anchors)
        assert all(len(shape) == 1 for shape in shapes)
        assert_allclose(el.reps[0].coeffs, [1.0 / math.factorial(k) for k in range(13)],
                        rtol=0, atol=1e-10)

    def test_unbounded_input_flagged(self):
        sp = GermSpace(anchors=(0.0,), base_radius=1.0, ratio=0.1, levels=4)
        with pytest.raises(EvaluationError, match="not boundedly holomorphic"):
            factorize(sp, lambda z: 1.0 / (z - 0.3), 0)


class TestDerivativeSups:
    def test_constant(self, scalar_germspace):
        el = scalar_germspace.constant_element(1.5, 1)
        s = derivative_sups([el])
        assert s[0] == pytest.approx(1.5)
        assert np.all(s[1:] == 0)

    def test_monomial(self):
        sp = GermSpace(anchors=(0.0,), base_radius=1.0, ratio=0.1, levels=4)
        el = sp.element_from_coeff_lists([[(1, 1.0)]], 0)
        s = derivative_sups([el])
        assert s[1] == pytest.approx(1.0)
        assert s[0] == 0 and np.all(s[2:] == 0)

    def test_family_max_dominates_members(self, scalar_germspace, rng):
        fam = unit_majorant_family(scalar_germspace, 1, rng, 10, include_monomials=False)
        s = derivative_sups(fam)
        for el in fam:
            for rep in el.reps:
                assert np.all(rep.coeff_norms() <= s + 1e-15)

    def test_empty_family_rejected(self):
        with pytest.raises(StructureError):
            derivative_sups([])

    def test_mixed_degree_bounds_rejected(self):
        # c_8 of the degree-12 member fits neither s_0..s_4 nor any tail
        high = GermSpace(anchors=(0.0,), levels=4).element_from_coeff_lists([[(8, 1.0)]], 0)
        low = GermSpace(anchors=(0.0,), levels=4, degree_bound=4).zero_element(0)
        for check in (derivative_sups, lambda fam: family_convergence_check(fam, 1.0, 0.1)):
            with pytest.raises(StructureError, match="degree bound"):
                check([high, low])


class TestFamilyConvergence:
    def test_constant_family(self, scalar_germspace):
        c = 0.8
        el = scalar_germspace.constant_element(c, 0)
        rep = family_convergence_check([el], R=1.0, r=0.1)
        assert rep.passed
        assert rep.extras["lhs"] == pytest.approx(c)
        assert rep.extras["rhs"] == pytest.approx(c / (1 - 0.2 * math.e), rel=1e-12)
        # a one-shot iterable is read once, not used up by the parameter record
        gen = family_convergence_check((e for e in [el]), R=1.0, r=0.1)
        assert gen.passed and gen.params["family_size"] == 1
        assert gen.extras == rep.extras

    def test_linear_germ(self):
        sp = GermSpace(anchors=(0.0,), base_radius=1.0, ratio=0.1, levels=4)
        el = sp.element_from_coeff_lists([[(1, 1.0)]], 0)
        rep = family_convergence_check([el], R=1.0, r=0.1)
        assert rep.passed
        assert rep.extras["lhs"] == pytest.approx(0.1)

    def test_random_sweep(self, scalar_germspace, rng):
        for _ in range(100):
            fam = unit_majorant_family(scalar_germspace, 0, rng, 5,
                                       include_monomials=False)
            assert family_convergence_check(fam, R=1.0, r=0.1).passed

    def test_ratio_precondition(self, scalar_germspace, rng):
        fam = unit_majorant_family(scalar_germspace, 0, rng, 3)
        with pytest.raises(BudgetError):
            family_convergence_check(fam, R=1.0, r=0.25)

    @pytest.mark.parametrize("R, r", [(0.0, 0.1), (1.0, -0.1)])
    def test_radii_out_of_range_rejected(self, scalar_germspace, R, r):
        # r < 0 used to fail a valid family with a negative "certified" remainder
        el = scalar_germspace.constant_element(0.5, 0)
        with pytest.raises(StructureError, match="R > 0 and r >= 0"):
            family_convergence_check([el], R=R, r=r, enforce_ratio=False)

    def test_negative_control_fails_beyond_budget(self):
        # geometric coefficient growth at rate 1/r with r past the budget
        sp = GermSpace(anchors=(0.0,), base_radius=1.0, ratio=0.1, levels=4)
        r_bad = 0.25
        pairs = [[(k, r_bad ** -k) for k in range(13)]]
        el = sp.element_from_coeff_lists(pairs, 0)
        rep = family_convergence_check([el], R=1.0, r=r_bad, enforce_ratio=False)
        assert not rep.passed


def reference_unit_majorant_family(space, level, rng, size=64, include_monomials=True):
    """unit_majorant_family one member at a time, through ``from_coeff_list``,
    ``norm_upper`` and ``scale``, from the documented draws: the counts, the
    degree candidates, then the normals, each as one array over all rows."""
    rho = space.radius(level)
    n = space.degree_bound
    family = []
    if include_monomials:
        for k in range(n + 1):
            coeff = space.space.one() if space.space.kind != "vector" else \
                np.eye(space.space.dim, dtype=complex)[0]
            per_anchor = [[(k, coeff / rho ** k)] for _ in space.anchors]
            family.append(space.element_from_coeff_lists(per_anchor, level))
    rows = (size, len(space.anchors))
    counts = rng.integers(1, 5, size=rows)
    cands = rng.integers(0, n + 1, size=rows + (4,))
    normals = rng.standard_normal((2,) + rows + (n + 1,) + space.space.shape)
    for m in range(size):
        per_anchor = []
        for a in range(len(space.anchors)):
            pairs = []
            for k in sorted(set(int(k) for k in cands[m, a, :counts[m, a]])):
                raw = normals[0, m, a, k] + 1j * normals[1, m, a, k]
                pairs.append((k, raw / rho ** k))
            per_anchor.append(pairs)
        el = space.element_from_coeff_lists(per_anchor, level)
        norm = el.norm_upper
        if norm > 0:
            family.append(el.scale(1.0 / norm))
    return family


class TestUnitMajorantFamily:
    @pytest.mark.parametrize("include_monomials", [True, False])
    @pytest.mark.parametrize("space", [scalar_space(), matrix_space(2), vector_space(3)],
                             ids=["scalar", "matrix2", "vector3"])
    def test_matches_per_member_reference(self, space, include_monomials):
        sp = GermSpace(anchors=(0.0, 0.4 + 0.1j), ratio=0.1, levels=6, space=space)
        for seed in range(5):
            rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            want = reference_unit_majorant_family(sp, 1, rng_ref, 16, include_monomials)
            got = unit_majorant_family(sp, 1, rng, 16, include_monomials)
            assert rng.bit_generator.state == rng_ref.bit_generator.state
            # the array draw compact_regularity_check uses, without the elements
            rng_arr = np.random.default_rng(seed)
            arrays = _unit_majorant_stack(sp, 1, rng_arr, 16, include_monomials)
            assert rng_arr.bit_generator.state == rng_ref.bit_generator.state
            for a, b in zip(arrays, _stack(got), strict=True):
                assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert len(got) == len(want)
            for x, y in zip(got, want):
                assert x.level == y.level == 1
                for a, b in zip(x.reps, y.reps):
                    assert a.coeffs.tobytes() == b.coeffs.tobytes()
                    assert (a.anchor, a.radius, a.tail_bound) == (b.anchor, b.radius, b.tail_bound)

    @pytest.mark.parametrize("space, top", [(scalar_space(), 152), (matrix_space(2), 74),
                                            (vector_space(3), 74)],
                             ids=["scalar", "matrix2", "vector3"])
    def test_powers_outside_the_float_range_raise_before_any_draw(self, space, top):
        # rho_2 = 0.01: scalar families build up to 0.01^152 = 1e-304, and vector
        # and matrix ones, whose norms square the coefficients, up to 0.01^74;
        # one degree more raises (today's arrays would hold inf and nan from
        # some degree on); warnings are errors
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for degree, ok in ((top, True), (top + 1, False), (200, False)):
                sp = GermSpace(anchors=(0.0, 0.4 + 0.1j), ratio=0.1, levels=6, space=space,
                               degree_bound=degree)
                rng = np.random.default_rng(3)
                state = rng.bit_generator.state
                if ok:
                    coeffs, _, _ = _unit_majorant_stack(sp, 2, rng, 8, True)
                    assert np.all(np.isfinite(coeffs))
                    assert np.all(np.isfinite(derivative_sups(
                        unit_majorant_family(sp, 2, rng, 8), normalized_radius=sp.radius(2))))
                    continue
                for call in (lambda: unit_majorant_family(sp, 2, rng, 8),
                             lambda: compact_regularity_check(sp, 2, 4, 0.1, 4, rng)):
                    with pytest.raises(StructureError,
                                       match=f"level 2: .* up to the degree bound {degree}"):
                        call()
                    assert rng.bit_generator.state == state
            # the sups read the powers alone: 0.01^200 underflows in every space
            family = unit_majorant_family(sp, 0, rng, 8)
            with pytest.raises(StructureError, match="normalized sups: .* degree bound 200"):
                derivative_sups(family, normalized_radius=sp.radius(2))

    @pytest.mark.parametrize("size", [-1, 2.5])
    def test_size_must_be_a_nonnegative_integer(self, scalar_germspace, size):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(StructureError, match="integer size"):
            unit_majorant_family(scalar_germspace, 0, rng, size=size)
        assert rng.bit_generator.state == state
        monomials = unit_majorant_family(scalar_germspace, 0, rng, size=0)
        assert len(monomials) == scalar_germspace.degree_bound + 1

    @pytest.mark.parametrize("space", [scalar_space(), matrix_space(2), vector_space(3)],
                             ids=["scalar", "matrix2", "vector3"])
    def test_member_distribution(self, space, monkeypatch):
        # 2,000 members x 2 anchors = 4,000 rows; N = 12, so 13 candidate degrees
        sp = GermSpace(anchors=(0.0, 0.4 + 0.1j), ratio=0.1, levels=6, space=space)
        rho, n, size = sp.radius(1), sp.degree_bound, 2000
        scales, real = [], germspace.batch_norm_upper

        def spy(norms, tails, r):
            scales.append(real(norms, tails, r))
            return scales[-1]

        with monkeypatch.context() as m:
            m.setattr(germspace, "batch_norm_upper", spy)
            family = unit_majorant_family(sp, 1, np.random.default_rng(2024), size, False)
        assert len(family) == size and len(scales) == 1
        assert all(abs(el.norm_upper - 1.0) <= 1e-15 for el in family)
        coeffs = _stack(family)[0]
        drawn = np.any(coeffs.reshape(coeffs.shape[:3] + (-1,)) != 0, axis=-1)
        assert set(np.sum(drawn, axis=-1).ravel().tolist()) <= {1, 2, 3, 4}
        # degree k is among c uniform candidates with probability 1 - (12/13)^c, c = 1..4
        p = np.mean([1 - (n / (n + 1)) ** c for c in range(1, 5)])
        assert np.all(np.abs(np.mean(drawn, axis=(0, 1)) - p) < 0.03)
        # undo 1/rho^k and the unit-majorant scaling: standard complex Gaussians
        pw = (rho ** np.arange(n + 1)).reshape((1, 1, -1) + (1,) * len(space.shape))
        raw = (coeffs * pw * scales[0].reshape((-1,) + (1,) * (coeffs.ndim - 1)))[drawn]
        assert abs(np.mean(raw.real)) < 0.05 and abs(np.mean(raw.imag)) < 0.05
        assert abs(np.mean(np.abs(raw) ** 2) - 2.0) < 0.1


class TestCompactRegularity:
    def test_large_eps_trivial(self, scalar_germspace, rng):
        rep = compact_regularity_check(scalar_germspace, 1, 3, 10.0, 50, rng)
        assert rep.passed
        assert rep.extras["delta"] >= 1.0

    def test_paper_delta_formula(self, scalar_germspace, rng):
        rep = compact_regularity_check(scalar_germspace, 1, 3, 0.1, 100, rng)
        assert rep.passed
        r = scalar_germspace.ratio
        k0 = rep.extras["k0"]
        assert rep.extras["delta"] == pytest.approx(
            (1 - 2 * math.e * r) * r ** k0 * 0.1 / 2)

    def test_violating_element_classified_outside(self, scalar_germspace, rng):
        rep = compact_regularity_check(scalar_germspace, 1, 3, 0.1, 10, rng)
        delta = rep.extras["delta"]
        # an element whose level-3 norm is 2*delta lies outside the hypothesis set
        rho3 = scalar_germspace.radius(3)
        el = scalar_germspace.constant_element(2 * delta, 1)
        assert bond(el, 3).sample_sup() == pytest.approx(2 * delta)
        assert not in_regularity_hypothesis(scalar_germspace, el, 3, delta)
        del rho3

    def test_inconclusive_with_injected_tails(self, scalar_germspace, rng):
        # a family with genuine tail mass cannot certify arbitrarily small eps
        rep = compact_regularity_check(
            scalar_germspace, 1, 3, 1e-14, 5, rng,
            family_size=4)
        assert rep.status in ("inconclusive", "pass")

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_eps_must_be_finite(self, scalar_germspace, rng, eps):
        # a NaN eps used to slip past ``eps <= 0`` and report "inconclusive"
        with pytest.raises(StructureError, match="eps"):
            compact_regularity_check(scalar_germspace, 1, 3, eps, 5, rng)

    def test_level_preconditions(self, scalar_germspace, rng):
        with pytest.raises(StructureError):
            compact_regularity_check(scalar_germspace, 3, 2, 0.1, 5, rng)
        with pytest.raises(StructureError):
            compact_regularity_check(scalar_germspace, 1, 3, -1.0, 5, rng)
        with pytest.raises(StructureError):
            compact_regularity_check(scalar_germspace, 1, 3, 0.1, -1, rng)


def reference_sample_sup(s, rho, n):
    """The per-series sampler first written: the largest value norm of
    ``TruncatedSeries.eval`` at n evenly spaced points of |z - a| = rho."""
    theta = 2 * np.pi * np.arange(n) / n
    return float(np.max(s.space.norm(s.eval(s.anchor + rho * np.exp(1j * theta)))))


def reference_element_sup(el, n):
    return max(reference_sample_sup(s, s.radius, n) for s in el.reps)


def reference_compact_regularity(space, n, ell, eps, trials, rng, family_size=64,
                                 slack=1e-9):
    """compact_regularity_check evaluated one trial at a time: one BHolElement
    per trial, built as a fold of ``scale`` and ``+`` over the family."""
    r = space.ratio
    params = {"n": n, "ell": ell, "eps": eps, "r": r, "trials": trials,
              "degree_bound": space.degree_bound}
    rep = Report(check="compact_regularity", params=params)
    family = unit_majorant_family(space, n, rng, family_size)
    rho_n = space.radius(n)
    s_k = derivative_sups(family, normalized_radius=rho_n)
    tau = max(s.tail_bound for el in family for s in el.reps)
    tail_rem = tau * r ** (space.degree_bound + 1) / (1.0 - r)  # Cauchy estimate, q = r
    nmax = len(s_k) - 1
    powers = r ** np.arange(nmax + 1)
    k0 = None
    for cand in range(nmax + 1):
        tail = float(np.sum(s_k[cand + 1:] * powers[cand + 1:])) + tail_rem
        if tail <= eps / 2.0:
            k0 = cand
            break
    if k0 is None:
        rep.status = "inconclusive"
        rep.extras = {"reason": f"no k0 within degree bound {nmax}: tail stays above eps/2"}
        return rep
    delta = (1.0 - 2.0 * math.e * r) * r ** k0 * eps / 2.0
    rep.extras = {"delta": delta, "k0": k0}

    count = 0
    for _ in range(trials):
        weights = rng.standard_normal(len(family)) + 1j * rng.standard_normal(len(family))
        weights /= np.sum(np.abs(weights))
        el = family[0].scale(weights[0])
        for w, f in zip(weights[1:], family[1:]):
            el = el + f.scale(w)
        maj_n = el.norm_upper
        maj_l = bond(el, ell).norm_upper
        if maj_n <= 0:
            continue
        coeff_ratio = math.inf
        for srep in el.reps:
            cn = srep.space.norm(srep.coeffs) * rho_n ** np.arange(srep.degree_bound + 1)
            nz = cn > 0
            if np.any(nz):
                coeff_ratio = min(coeff_ratio, float(np.min(s_k[: len(cn)][nz] / cn[nz])))
        sigma = min(1.0 / maj_n, (delta / maj_l) if maj_l > 0 else math.inf, coeff_ratio)
        el = el.scale(0.999 * sigma)
        count += 1
        sampled = reference_element_sup(bond(el, n + 1), 96)
        rep.note_margin(eps - sampled)
        if sampled > eps + slack:
            rep.fail({"sampled_sup": sampled, "eps": eps,
                      "maj_n": el.norm_upper, "maj_l": bond(el, ell).norm_upper})
    rep.trials = count
    return rep


REGULARITY_CASES = [(n, ell, eps, 1e-9) for n in (1, 2) for ell in (3, 4) for eps in (0.5, 0.1)]


class TestCompactRegularityOracle:
    """The batched check reproduces the one-trial-at-a-time check exactly."""

    @pytest.mark.parametrize("space", [scalar_space(), matrix_space(2), vector_space(3)],
                             ids=["scalar", "matrix2", "vector3"])
    @pytest.mark.parametrize("n,ell,eps,slack", REGULARITY_CASES + [(1, 3, 0.1, -1.0)])
    def test_matches_per_trial_reference(self, space, n, ell, eps, slack):
        sp = GermSpace(anchors=(0.0, 0.4 + 0.1j), base_radius=1.0, ratio=0.1, levels=6,
                       space=space, degree_bound=12)
        seed = 40_000 + 100 * n + 10 * ell + int(10 * eps)
        rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = reference_compact_regularity(sp, n, ell, eps, 30, rng_ref, slack=slack)
        got = compact_regularity_check(sp, n, ell, eps, 30, rng, slack=slack)
        assert got.to_dict() == want.to_dict()
        assert rng.bit_generator.state == rng_ref.bit_generator.state
        if slack < 0:
            assert len(got.failures) == got.trials == 30

    def test_zero_trials(self, scalar_germspace):
        rng_ref, rng = np.random.default_rng(3), np.random.default_rng(3)
        want = reference_compact_regularity(scalar_germspace, 1, 3, 0.1, 0, rng_ref)
        got = compact_regularity_check(scalar_germspace, 1, 3, 0.1, 0, rng)
        assert got.to_dict() == want.to_dict()
        assert got.trials == 0 and got.worst_margin is None


class TestUnionGlue:
    def test_same_piece_identity(self, rng):
        sp = GermSpace(anchors=(0.0,), base_radius=1.0, ratio=0.1, levels=4)
        rep = union_glue_check(sp, sp, 1, rng, trials=5)
        assert rep.passed

    def test_disjoint_pieces(self, rng):
        a = GermSpace(anchors=(0.0,), base_radius=1.0, ratio=0.1, levels=4)
        b = GermSpace(anchors=(5.0,), base_radius=1.0, ratio=0.1, levels=4)
        rep = union_glue_check(a, b, 1, rng, trials=5)
        assert rep.passed

    def test_overlapping_shared_polynomial(self, rng):
        a = GermSpace(anchors=(0.0,), base_radius=1.0, ratio=0.1, levels=4)
        b = GermSpace(anchors=(0.5,), base_radius=1.0, ratio=0.1, levels=4)
        rep = union_glue_check(a, b, 1, rng, trials=10, tol=1e-10)
        assert rep.passed

    @pytest.mark.parametrize("other, trials", [(scalar_space(), -3), (vector_space(2), 5)],
                             ids=["negative-trials", "mixed-spaces"])
    def test_invalid_input_rejected_before_drawing(self, rng, other, trials):
        sp = GermSpace(anchors=(0.0,), ratio=0.1, levels=4, degree_bound=4)
        sp_b = GermSpace(anchors=(0.5,), ratio=0.1, levels=4, degree_bound=4, space=other)
        state = rng.bit_generator.state
        with pytest.raises(StructureError):
            union_glue_check(sp, sp_b, 1, rng, trials=trials)
        assert rng.bit_generator.state == state

    def test_incompatible_inputs_flagged(self, rng):
        a = GermSpace(anchors=(0.0,), base_radius=1.0, ratio=0.1, levels=4)
        b = GermSpace(anchors=(0.5,), base_radius=1.0, ratio=0.1, levels=4)
        rep = union_glue_check(a, b, 0, rng, trials=5, incompatible=True)
        assert rep.passed  # the check passes when every invalid input is flagged

    @pytest.mark.parametrize("space", [scalar_space(), vector_space(3), matrix_space(2)],
                             ids=["scalar", "vector3", "matrix2"])
    def test_coefficient_spaces(self, rng, space):
        a = GermSpace(anchors=(0.0,), base_radius=1.0, ratio=0.1, levels=4, space=space)
        b = GermSpace(anchors=(0.5,), base_radius=1.0, ratio=0.1, levels=4, space=space)
        assert union_glue_check(a, b, 1, rng, trials=5, tol=1e-10).passed
        assert union_glue_check(a, b, 0, rng, trials=5, incompatible=True).passed


ELEMENT_SPACES = {
    "scalar": GermSpace(anchors=(0.0, 0.4 + 0.1j), ratio=0.1, levels=4, degree_bound=6),
    "matrix2": GermSpace(anchors=(0.0, 1.5 + 0.5j), ratio=0.1, levels=4, degree_bound=6,
                         space=matrix_space(2)),
}


def signed_zero_element(sp, level, rng):
    """Random per-anchor series built by ``BHolElement.of``, with about a third of
    the real and imaginary parts +0.0 or -0.0; radii and tails vary per anchor."""
    n = sp.degree_bound
    parts = rng.standard_normal((len(sp.anchors), n + 1) + sp.space.shape + (2,))
    parts[rng.random(parts.shape) < 0.35] = 0.0
    parts[rng.random(parts.shape) < 0.5] *= -1.0  # signs on the zeros too
    coeffs = np.ascontiguousarray(parts).view(complex)[..., 0]
    radius = sp.radius(level) * rng.uniform(0.5, 1.0, len(sp.anchors))
    tail = rng.uniform(0.0, 1e-3, len(sp.anchors))
    return BHolElement.of(sp, level, (
        TruncatedSeries(a, n, c, r, t, sp.space)
        for a, c, r, t in zip(sp.anchors, coeffs, radius.tolist(), tail.tolist())))


def assert_same_bits(got, want):
    """Equal levels and bit-equal stacks (signed zeros included)."""
    assert got.level == want.level
    for name in ("coeffs", "radius", "tail"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


NORM_SPACES = dict(ELEMENT_SPACES, **{
    "vector3": GermSpace(anchors=(0.0, 0.4 + 0.1j, -0.3j), ratio=0.1, levels=4,
                         degree_bound=6, space=vector_space(3)),
})


class TestStackedNorms:
    @pytest.mark.parametrize("name", sorted(NORM_SPACES))
    def test_norm_upper_and_distance_match_the_series(self, name, rng):
        # the largest per-anchor majorant_norm / poly_majorant, bit for bit
        sp = NORM_SPACES[name]
        for _ in range(6):
            x, y = (signed_zero_element(sp, 1, rng) for _ in range(2))
            for el in (x, bond(y, 2), x.scale(-0.3j)):
                want = max(s.majorant_norm() for s in el.reps)
                assert el.norm_upper == want and type(el.norm_upper) is float
            want = max(s.poly_majorant() for s in (bond(x, 2) - bond(y, 2)).reps)
            assert germ_distance(x, bond(y, 2)) == want


def reference_worst_norm_ratio(space_r, space_r2, elements):
    """``ratio_topology_spotcheck``'s worst ratio from per-series majorant norms."""
    worst = 0.0
    for el in elements:
        for lvl in (1, 2):
            m1, m2 = (max(s.majorant_norm(min(sp.radius(lvl), s.radius)) for s in el.reps)
                      for sp in (space_r, space_r2))
            worst = max(worst, m1 / m2, m2 / m1)
    return worst


SAMPLER_SPACES = {name: GermSpace(anchors=(0.0, 0.4 + 0.1j, -0.3j), ratio=0.1, levels=4,
                                   space=cs, degree_bound=12)
                  for name, cs in (("scalar", scalar_space()), ("vector3", vector_space(3)),
                                   ("matrix2", matrix_space(2)))}


class TestBoundarySampler:
    """Every sampling entry point reaches ``series._boundary_sups`` and gives the
    bits of the per-series reference."""

    @pytest.mark.parametrize("name", sorted(SAMPLER_SPACES))
    def test_matches_the_per_series_reference(self, name, rng):
        # radii differ per anchor and per member (signed_zero_element draws them);
        # at n = 1 BLAS takes a dot product, which sums in another order on
        # strided powers, so one sample per circle tells the layouts apart
        sp = SAMPLER_SPACES[name]
        family = [signed_zero_element(sp, 1, rng) for _ in range(3)]
        coeffs, _, radii = _stack(family)
        for n in (1, 7, 128):
            want = [[reference_sample_sup(s, s.radius, n) for s in el.reps] for el in family]
            for el, row in zip(family, want):
                assert [s.sample_sup(None, n) for s in el.reps] == row
                assert el.sample_sup(n) == max(row)
            assert _boundary_sups(coeffs, sp.anchors, radii, n, sp.space).tolist() == want
            rho = sp.radius(1)
            rep = family_convergence_check(family, R=rho, r=0.1 * rho, sup_samples=n)
            assert rep.extras["sup_sampled"] == max(map(max, want))
            empty = _boundary_sups(coeffs[:0], sp.anchors, radii[:0], n, sp.space)
            assert empty.shape == (0, len(sp.anchors))
        sp2 = GermSpace(sp.anchors, ratio=0.15, levels=4, degree_bound=sp.degree_bound,
                        space=sp.space)
        top = [signed_zero_element(sp, 0, rng) for _ in range(3)]
        assert ratio_topology_spotcheck(sp, sp2, top).extras == {
            "worst_norm_ratio": reference_worst_norm_ratio(sp, sp2, top)}
        for trials in (0, 5):
            seed = int(rng.integers(2 ** 32))
            want = reference_compact_regularity(sp, 1, 3, 0.1, trials,
                                                np.random.default_rng(seed), family_size=8)
            got = compact_regularity_check(sp, 1, 3, 0.1, trials, np.random.default_rng(seed),
                                           family_size=8)
            assert got.to_dict() == want.to_dict() and got.trials == trials

    def test_sampling_checks_build_no_series(self, rng, monkeypatch):
        sp = SAMPLER_SPACES["vector3"]
        sp2 = GermSpace(sp.anchors, ratio=0.15, levels=4, degree_bound=sp.degree_bound,
                        space=sp.space)
        family, top = unit_majorant_family(sp, 1, rng, 4), unit_majorant_family(sp, 0, rng, 4)
        built = []
        post_init = TruncatedSeries.__post_init__
        monkeypatch.setattr(TruncatedSeries, "__post_init__",
                            lambda self: built.append(1) or post_init(self))
        assert family[0].sample_sup() > 0
        rho = sp.radius(1)
        assert family_convergence_check(family, R=rho, r=0.1 * rho).passed
        assert ratio_topology_spotcheck(sp, sp2, top).passed
        assert built == []

    @pytest.mark.parametrize("n", [0, -1, 2.5])
    def test_sample_count_must_be_a_positive_integer(self, scalar_germspace, n):
        # 2.5 used to sample 3 points, at angles 0, 0.8 pi and 1.6 pi
        el = scalar_germspace.constant_element(0.5, 1)
        for call in (lambda: el.reps[0].sample_sup(None, n), lambda: el.sample_sup(n),
                     lambda: family_convergence_check([el], R=0.1, r=0.01, sup_samples=n)):
            with pytest.raises(StructureError, match="integer n >= 1"):
                call()


class TestElementStack:
    @pytest.mark.parametrize("name", sorted(ELEMENT_SPACES))
    def test_linear_structure_matches_series_arithmetic(self, name, rng):
        sp = ELEMENT_SPACES[name]
        for _ in range(4):
            x, y = (signed_zero_element(sp, 1, rng) for _ in range(2))
            for got, beta in ((x + y, 1.0), (x - y, -1.0)):
                assert_same_bits(got, BHolElement.of(sp, 1, (
                    linear_combination(a, b, 1.0, beta) for a, b in zip(x.reps, y.reps))))
            for alpha in (-0.3, 2.5j, complex(-0.0, 1.5), 0.0, -1.0):
                assert_same_bits(x.scale(alpha),
                                 BHolElement.of(sp, 1, (s.scale(alpha) for s in x.reps)))
            for level in (2, 3):
                rho = sp.radius(level)
                assert_same_bits(bond(x, level), BHolElement.of(sp, level, (
                    s.restrict(min(rho, s.radius)) for s in x.reps)))

    @pytest.mark.parametrize("name", sorted(ELEMENT_SPACES))
    def test_reps_view_the_stack(self, name, rng):
        sp = ELEMENT_SPACES[name]
        x, y = (signed_zero_element(sp, 1, rng) for _ in range(2))
        el = bond(x - y.scale(0.5j), 2)
        assert len(el.reps) == len(sp.anchors) and el.reps is el.reps
        for s, a, c, r, t in zip(el.reps, sp.anchors, el.coeffs, el.radius, el.tail):
            assert s.coeffs.tobytes() == c.tobytes()
            assert (s.radius, s.tail_bound, s.space, s.anchor) == (r, t, sp.space, a)

    def test_arrays_are_read_only(self, scalar_germspace, rng):
        x = signed_zero_element(scalar_germspace, 1, rng)
        for el in (x, x + x, x.scale(2.0), bond(x, 2), scalar_germspace.zero_element(0),
                   unit_majorant_family(scalar_germspace, 1, rng, 4)[0]):
            for name in ("coeffs", "radius", "tail"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(el, name)[0] = 0.0

    def test_mixed_degree_bounds_truncate_like_the_series(self, scalar_germspace, rng):
        x, y = (signed_zero_element(scalar_germspace, 1, rng) for _ in range(2))
        short = BHolElement.of(scalar_germspace, 1, (s.truncate(3) for s in y.reps))
        assert_same_bits(x - short, BHolElement.of(scalar_germspace, 1, (
            linear_combination(a, b, 1.0, -1.0) for a, b in zip(x.reps, short.reps))))
        assert (x - short).coeffs.shape[1] == 4

    def test_stack_shape_and_radius_validated(self, scalar_germspace):
        sp = scalar_germspace
        good = sp.zero_element(1)
        with pytest.raises(StructureError, match="one series per anchor"):
            BHolElement(sp, 1, good.coeffs[:1], good.radius[:1], good.tail[:1])
        with pytest.raises(StructureError, match="level radius"):
            BHolElement(sp, 2, good.coeffs, good.radius, good.tail)
        with pytest.raises(StructureError, match="tail"):
            BHolElement(sp, 1, good.coeffs, good.radius, [0.0, math.inf])
        with pytest.raises(StructureError, match="degree bound"):
            BHolElement.of(sp, 1, (good.reps[0], good.reps[1].truncate(3)))

    def test_compact_regularity_builds_no_series(self, scalar_germspace, rng, monkeypatch):
        built = []
        post_init = TruncatedSeries.__post_init__
        monkeypatch.setattr(TruncatedSeries, "__post_init__",
                            lambda self: built.append(1) or post_init(self))
        rep = compact_regularity_check(scalar_germspace, 1, 3, 0.1, 30, rng)
        assert rep.passed and rep.trials == 30
        assert built == []


class TestCoherence:
    def test_incoherent_element_detected(self):
        sp = GermSpace(anchors=(0.0, 0.5), base_radius=1.0, ratio=0.1, levels=4)
        # different constants on overlapping level-0 balls
        reps = (
            TruncatedSeries.constant(1.0, 0.0, 1.0, scalar_space(), 12),
            TruncatedSeries.constant(2.0, 0.5, 1.0, scalar_space(), 12),
        )
        el = BHolElement.of(sp, 0, reps)
        assert el.coherence_defect() > 0.5


class TestElementAnchors:
    def test_series_at_another_anchor_rejected(self):
        sp = GermSpace(anchors=(0.0, 0.5), ratio=0.1, degree_bound=4)
        reps = tuple(TruncatedSeries.constant(1.0, a, 1.0, scalar_space(), 4) for a in (0.0, 7.0))
        with pytest.raises(StructureError, match="anchor"):
            BHolElement.of(sp, 0, reps)


class TestGermDistance:
    def test_different_anchor_sets_rejected(self):
        a = GermSpace(anchors=(0.0, 0.4 + 0.1j))
        b = GermSpace(anchors=(0.0, 0.5))
        with pytest.raises(StructureError):
            germ_distance(a.constant_element(1.0, 0), b.constant_element(1.0, 0))


class TestRatioSpotcheck:
    def test_two_ratios_give_comparable_norms(self, rng):
        a = GermSpace(anchors=(0.0,), base_radius=1.0, ratio=0.1, levels=5)
        b = GermSpace(anchors=(0.0,), base_radius=1.0, ratio=0.15, levels=5)
        fam = unit_majorant_family(a, 0, rng, 6)
        rep = ratio_topology_spotcheck(a, b, fam)
        assert rep.passed
        assert math.isfinite(rep.extras["worst_norm_ratio"])
