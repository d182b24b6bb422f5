import itertools
import json
import math

import numpy as np
import pytest

from germlie import complexify as cx
from germlie.complexify import (
    ChartInterval,
    ComplexAtlas,
    RealAtlas,
    Transition,
    annulus_consistency,
    atlas_from_json,
    atlas_to_json,
    build_transition,
    certify_cocycles,
    circle_atlas,
    extend_transitions,
    identity_transition,
    perturb_transition,
    tan_chart_pair,
    uniqueness_biholomorphism,
)
from germlie.errors import EvaluationError, ExtensionError, StructureError
from germlie.reports import Report
from germlie.series import TruncatedSeries, scalar_space


# ---------------------------------------------------------------------------
# The per-grid glueing checks, one grid and one evaluation at a time: kept as
# the oracle of the stacked checks in ``complexify``.
# ---------------------------------------------------------------------------

def reference_grid(overlap, height):
    lo, hi = overlap
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo) * 0.8
    xs = np.linspace(mid - half, mid + half, cx._GRID_N)
    ys = np.linspace(-height, height, cx._GRID_N)
    return (xs[:, None] + 1j * ys[None, :]).ravel()


def reference_transport(tr, atlas, target, zs, defined=None):
    mid = tr.eval(zs)
    ok = ~np.isnan(mid.real) if defined is None else defined & ~np.isnan(mid.real)
    back = np.full(zs.shape, np.nan + 0j)
    if np.any(ok):
        back[ok] = atlas.eval_change(tr.j, target, mid[ok])
    ok &= ~np.isnan(back.real)
    return back, ok


def reference_max_residual(got, want, ok, zs):
    res = np.abs(got[ok] - want[ok])
    at = int(np.argmax(res))
    return float(res[at]), zs[ok][at]


def reference_compare(rep, worst, kind, tol, got, want, ok, zs, **where):
    if not np.any(ok):
        return False
    res, w = reference_max_residual(got, want, ok, zs)
    worst[kind] = max(worst[kind], res)
    rep.trials += 1
    if res > tol:
        rep.fail({"kind": kind, **where, "residual": res, "witness": [w.real, w.imag]})
    return True


def reference_extend_transitions(atlas, height):
    if not (math.isfinite(height) and height > 0):
        raise StructureError(f"strip height must be finite and positive, got {height}")
    for tr in atlas.records():
        est = tr.convergence_radius_estimate()
        if est <= height:
            raise ExtensionError(
                f"transition ({tr.i},{tr.j}): convergence-radius estimate {est:.4g} "
                f"does not clear the requested height {height:.4g}")
    heights = {}
    for tr in atlas.records():
        i, j = tr.i, tr.j
        h = height
        while True:
            zs = reference_grid(tr.overlap, h)
            back, ok = reference_transport(tr, atlas, i, zs)
            if np.count_nonzero(ok) >= 0.5 * zs.size and \
                    reference_max_residual(back, zs, ok, zs)[0] <= cx._INVERSE_TOL:
                break
            h *= 0.7
            if h < height * cx._MIN_HEIGHT_FACTOR:
                raise ExtensionError(
                    f"transition ({i},{j}): mutual-inverse check fails at every "
                    f"height down to {h / 0.7:.3g}")
        heights[(i, j)] = min(h, heights.get((i, j), math.inf))
    for (i, j) in list(heights):
        h = min(heights[(i, j)], heights.get((j, i), math.inf))
        heights[(i, j)] = heights[(j, i)] = h
    for i in range(len(atlas.charts)):
        heights.setdefault((i, i), height)
    margins = []
    for (i, j), h in sorted(heights.items()):
        if i == j:
            continue
        margins.append(((i, j), "strip", 0.2 * h))
        margins.append(((i, j), "interval", min(atlas.charts[i].margins)))
    if any(v <= 0 for (_, _, v) in margins):
        raise ExtensionError("margin table contains a nonpositive entry")
    return ComplexAtlas(atlas, heights, tuple(margins))


def reference_certify_cocycles(ca, tol=1e-9):
    if not (math.isfinite(tol) and tol > 0):
        raise StructureError(f"cocycle tolerance must be finite and positive, got {tol}")
    rep = Report(check="cocycle_certification", params={"tol": tol, "grid_n": cx._GRID_N})
    atlas = ca.base
    worst = {"identity": 0.0, "inverse": 0.0, "cocycle": 0.0}
    for i in range(len(atlas.charts)):
        for tr in atlas.between(i, i):
            zs = reference_grid(tr.overlap, ca.height(i, i) * 0.5)
            vals = tr.eval(zs)
            reference_compare(rep, worst, "identity", tol, vals, zs, ~np.isnan(vals.real), zs,
                              chart=i)
    for tr in atlas.records():
        i, j = tr.i, tr.j
        zs = reference_grid(tr.overlap, ca.height(i, j))
        back, ok = reference_transport(tr, atlas, i, zs)
        reference_compare(rep, worst, "inverse", tol, back, zs, ok, zs, pair=[i, j])
    triples_checked = 0
    for i, j, k in itertools.permutations(range(len(atlas.charts)), 3):
        checked = False
        for t_ij in atlas.between(i, j):
            for t_ik in atlas.between(i, k):
                lo = max(t_ij.overlap[0], t_ik.overlap[0])
                hi = min(t_ij.overlap[1], t_ik.overlap[1])
                if lo >= hi:
                    continue
                h = min(ca.height(i, j), ca.height(i, k), ca.height(k, j))
                zs = reference_grid((lo, hi), h)
                direct = t_ij.eval(zs)
                step2, ok = reference_transport(t_ik, atlas, j, zs, ~np.isnan(direct.real))
                checked |= reference_compare(rep, worst, "cocycle", tol, step2, direct, ok, zs,
                                             triple=[i, j, k])
        triples_checked += checked
    rep.extras = {"worst_residuals": worst, "triples_checked": triples_checked}
    if rep.trials:
        rep.note_margin(tol - max(worst.values()))
    return rep


def reference_uniqueness_biholomorphism(ca1, ca2):
    rep = Report(check="uniqueness_biholomorphism",
                 params={"tol_real": cx._REAL_TOL, "tol": cx._TRANSPORT_TOL})
    if len(ca1.base.charts) != len(ca2.base.charts):
        raise StructureError("atlases complexify different chart systems")
    worst = {"real_restriction": 0.0, "cross_transport": 0.0}
    final_heights = {}
    missing = None
    for t1 in ca1.base.records():
        i, j = t1.i, t1.j
        h = min(ca1.height(i, j), ca2.heights.get((i, j), 0.0))
        lo, hi = t1.overlap
        if h <= 0:
            missing = missing or f"no common strip for pair ({i},{j})"
            continue
        final_heights[f"{i},{j}"] = min(h, final_heights.get(f"{i},{j}", math.inf))
        xs = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), cx._GRID_N ** 2) + 0j
        v1 = t1.eval(xs)
        v2 = ca2.base.eval_change(i, j, xs)
        reference_compare(rep, worst, "real_restriction", cx._REAL_TOL, v1, v2,
                          ~np.isnan(v1.real) & ~np.isnan(v2.real), xs, pair=[i, j])
        zs = reference_grid((lo, hi), h)
        back, ok = reference_transport(t1, ca2.base, i, zs)
        reference_compare(rep, worst, "cross_transport", cx._TRANSPORT_TOL, back, zs, ok, zs,
                          pair=[i, j])
    rep.extras.update({"worst_real_restriction": worst["real_restriction"],
                       "worst_cross_transport": worst["cross_transport"],
                       "strip_heights": final_heights})
    rep.note_margin(cx._TRANSPORT_TOL - worst["cross_transport"])
    if missing and rep.status != "fail":
        rep.inconclusive(missing)
    return rep


def reference_annulus_consistency(ca):
    rep = Report(check="annulus_model_consistency", params={"tol": cx._ANNULUS_TOL})
    worst = {"annulus": 0.0}
    for tr in ca.base.records():
        zs = reference_grid(tr.overlap, ca.height(tr.i, tr.j))
        vals = tr.eval(zs)
        reference_compare(rep, worst, "annulus", cx._ANNULUS_TOL, np.exp(1j * vals),
                          np.exp(1j * zs), ~np.isnan(vals.real), zs, pair=[tr.i, tr.j])
    rep.extras = {"worst_residual": worst["annulus"]}
    rep.note_margin(cx._ANNULUS_TOL - worst["annulus"])
    return rep


STACKED = (extend_transitions, certify_cocycles, uniqueness_biholomorphism,
           annulus_consistency)
REFERENCE = (reference_extend_transitions, reference_certify_cocycles,
             reference_uniqueness_biholomorphism, reference_annulus_consistency)

# name -> (atlas, strip height, records perturbed as (i, j, amount))
GLUE_CASES = {
    **{f"circle{n}-h{h}": (lambda n=n: circle_atlas(n), h, ())
       for n in (3, 4, 5, 6) for h in (0.05, 0.08, 0.1)},
    "circle4-perturbed": (lambda: circle_atlas(4), 0.1, ((0, 1, 1e-6),)),
    # the perturbed (2,1) record and its inverse (1,2) fail at every height
    "circle4-two-failing": (lambda: circle_atlas(4), 0.1, ((2, 1, 1e-3),)),
    "tan-h0.12": (tan_chart_pair, 0.12, ()),
}


def glue_outputs(name, checks=STACKED):
    """Everything the glueing checks say about a case of ``GLUE_CASES``, as JSON
    data: the heights and margin table of the (perturbed) atlas or its
    ExtensionError text, then four reports -- the cocycles of the perturbed
    atlas, uniqueness against the 0.05 extension both ways, and the annulus."""
    extend, certify, uniqueness, annulus = checks
    make, height, defects = GLUE_CASES[name]
    atlas = make()
    ca = extend(atlas, height)
    for i, j, amount in defects:
        ca = perturb_transition(ca, i, j, amount)
    try:
        ext = extend(ca.base, height)
        glued = [[[i, j, h] for (i, j), h in ext.heights.items()], list(ext.margin_table)]
    except ExtensionError as exc:
        glued = str(exc)
    small = extend(atlas, 0.05)
    reports = [certify(ca), uniqueness(ca, small), uniqueness(small, ca), annulus(ca)]
    return [glued, [r.to_dict() for r in reports]]


@pytest.fixture(scope="module")
def circle3():
    return circle_atlas(3)


@pytest.fixture(scope="module")
def circle3_ext(circle3):
    return extend_transitions(circle3, 0.1)


class TestStructure:
    def test_chart_nesting_enforced(self):
        with pytest.raises(StructureError):
            ChartInterval(0.0, 1.0, 0.0, 1.0, 0.2, 0.8)

    def test_missing_inverse_record_rejected(self):
        tr = identity_transition(0, (0.0, 1.0), 2.0)
        fwd = Transition(0, 1, (0.0, 1.0), tr.pieces)
        charts = (ChartInterval(-0.1, 1.1, 0.0, 1.0, 0.2, 0.8),
                  ChartInterval(-0.1, 1.1, 0.0, 1.0, 0.2, 0.8))
        with pytest.raises(StructureError, match="inverse"):
            RealAtlas(charts, (fwd,))

    def test_transition_requires_real_data(self):
        s = TruncatedSeries.from_coeff_list([(0, 1j)], 0.5, 1.0, scalar_space(), 4)
        with pytest.raises(StructureError):
            Transition(0, 1, (0.0, 1.0), (s,))

    def test_transition_without_pieces_rejected(self, circle3):
        # an empty record used to shrink the strip 26 times and blame the inverse check
        with pytest.raises(StructureError, match="no series pieces"):
            Transition(0, 1, (0.0, 1.0), ())
        doc = atlas_to_json(circle3)
        doc["transitions"][0]["series"] = []
        with pytest.raises(StructureError, match="no series pieces"):
            atlas_from_json(doc)

    def test_transition_fields_become_tuples(self):
        tr = identity_transition(0, (0.0, 1.0), 2.0)
        listed = Transition(0, 0, [0.0, 1.0], list(tr.pieces))
        assert listed.overlap == (0.0, 1.0) and listed.pieces == tr.pieces
        assert listed == tr and hash(listed) == hash(tr)

    @pytest.mark.parametrize("frac", [0.0, -0.3, math.nan])
    def test_circle_overlap_must_be_finite_and_positive(self, frac):
        # 0 and -0.3 gave an atlas with no overlap records that certified; NaN
        # failed late on an unrelated radius check
        with pytest.raises(StructureError, match="overlap_frac"):
            circle_atlas(3, overlap_frac=frac)

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_circle_neighbours_must_get_an_overlap_record(self, n):
        # overlaps below 1e-9 are skipped: 1e-11 built no record at all, and the
        # atlas certified its cocycles on the identity trials alone
        with pytest.raises(StructureError, match="no overlap record"):
            circle_atlas(n, overlap_frac=1e-11)
        atlas = circle_atlas(n, overlap_frac=1e-6)
        linked = {(tr.i, tr.j) for tr in atlas.transitions if tr.i != tr.j}
        assert all((i, (i + 1) % n) in linked and ((i + 1) % n, i) in linked
                   for i in range(n))


class TestExtension:
    def test_identity_transitions_extend_at_any_height(self):
        atlas = circle_atlas(2, overlap_frac=0.3)
        ca = extend_transitions(atlas, 0.3)
        assert all(h == pytest.approx(0.3) for h in ca.heights.values())

    def test_circle_translations_are_exact(self, circle3_ext):
        rep = certify_cocycles(circle3_ext, tol=1e-12)
        assert rep.passed

    def test_margin_table_positive(self, circle3_ext):
        assert all(v > 0 for (_, _, v) in circle3_ext.margin_table)

    def test_insufficient_decay_rejected(self):
        atlas = tan_chart_pair()
        with pytest.raises(ExtensionError, match="convergence-radius"):
            extend_transitions(atlas, 5.0)

    @pytest.mark.parametrize("height", [math.nan, math.inf, 0.0, -0.1])
    def test_height_must_be_finite_and_positive(self, circle3, height):
        # NaN used to shrink the height forever; 0 and -0.1 failed late on the margin table
        with pytest.raises(StructureError, match="strip height"):
            extend_transitions(circle3, height)

    def test_tan_pair_mutual_inverse(self):
        atlas = tan_chart_pair()
        ca = extend_transitions(atlas, 0.12)
        rep = certify_cocycles(ca, tol=1e-10)
        assert rep.passed
        assert rep.extras["worst_residuals"]["inverse"] < 1e-10


class TestCocycles:
    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-9])
    def test_tolerance_must_be_finite_and_positive(self, circle3_ext, tol):
        # a NaN tolerance used to pass: no residual compares greater than NaN
        with pytest.raises(StructureError, match="tolerance"):
            certify_cocycles(circle3_ext, tol=tol)

    def test_two_chart_atlas_has_vacuous_triples(self):
        atlas = circle_atlas(2, overlap_frac=0.3)
        rep = certify_cocycles(extend_transitions(atlas, 0.1))
        assert rep.passed
        assert rep.extras["triples_checked"] == 0

    def test_three_chart_cover_all_six_triples(self, circle3_ext):
        rep = certify_cocycles(circle3_ext, tol=1e-10)
        assert rep.passed
        assert rep.extras["triples_checked"] == 6

    def test_perturbed_transition_fails_with_matching_residual(self, circle3_ext):
        bad = perturb_transition(circle3_ext, 0, 1, 1e-6)
        rep = certify_cocycles(bad)
        assert not rep.passed
        residuals = [f["residual"] for f in rep.failures]
        assert any(abs(r - 1e-6) < 1e-8 for r in residuals)

    def test_perturbing_a_missing_pair_raises(self, circle3_ext):
        with pytest.raises(StructureError):
            perturb_transition(circle3_ext, 0, 7, 1e-3)

    def test_failure_names_witness(self, circle3_ext):
        bad = perturb_transition(circle3_ext, 0, 1, 1e-5)
        rep = certify_cocycles(bad)
        flagged = rep.failures[0]
        assert "witness" in flagged and len(flagged["witness"]) == 2


def close_within(got, want, atol):
    """Equal JSON data, floats to within ``atol``."""
    if isinstance(want, float) and isinstance(got, float):
        return got == want or abs(got - want) <= atol
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and \
            all(close_within(got[k], want[k], atol) for k in want)
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and \
            all(close_within(a, b, atol) for a, b in zip(got, want))
    return got == want


class TestStackedGlueing:
    """The stacked checks against the per-grid ``reference_*`` functions."""

    @pytest.mark.parametrize("name", [n for n in GLUE_CASES if not n.startswith("tan")])
    def test_circle_cases_match_the_reference_bit_for_bit(self, name):
        got, want = glue_outputs(name), glue_outputs(name, REFERENCE)
        assert json.dumps(got) == json.dumps(want)

    def test_two_failing_records_fail_in_reference_order(self):
        # the error names (1,2), the first failing record in records() order
        glued, reports = glue_outputs("circle4-two-failing")
        assert glued == glue_outputs("circle4-two-failing", REFERENCE)[0]
        assert glued.startswith("transition (1,2): mutual-inverse check fails at every height")
        inverse = [f["pair"] for f in reports[0]["failures"] if f["kind"] == "inverse"]
        assert inverse == [[1, 2], [2, 1]]

    def test_tan_pair_matches_the_reference_to_rounding(self):
        # degree-30 pieces evaluate through a BLAS product whose last bit may
        # depend on how many points share the call
        got, want = (json.loads(json.dumps(glue_outputs("tan-h0.12", c)))
                     for c in (STACKED, REFERENCE))
        assert close_within(got, want, 1e-15)

    def test_empty_stacks(self):
        # no triple overlaps on two charts; no common strip; no records at all
        atlas = circle_atlas(2, overlap_frac=0.3)
        ca = extend_transitions(atlas, 0.1)
        stripless = ComplexAtlas(atlas, {(0, 0): 0.1, (1, 1): 0.1}, ())
        bare = ComplexAtlas(RealAtlas(atlas.charts, ()), {}, ())
        for check, ref, args in [(certify_cocycles, reference_certify_cocycles, (ca,)),
                                 (uniqueness_biholomorphism, reference_uniqueness_biholomorphism,
                                  (ca, stripless)),
                                 (certify_cocycles, reference_certify_cocycles, (bare,)),
                                 (annulus_consistency, reference_annulus_consistency, (bare,))]:
            assert check(*args).to_dict() == ref(*args).to_dict()
        assert uniqueness_biholomorphism(ca, stripless).status == "inconclusive"
        assert extend_transitions(bare.base, 0.1).heights == {(0, 0): 0.1, (1, 1): 0.1}



def scan_between(atlas, i, j):
    """``RealAtlas.between`` as a scan over every record, the oracle of its pair index."""
    return tuple(tr for tr in atlas.transitions if (tr.i, tr.j) == (i, j))


class TestPairIndex:
    @pytest.mark.parametrize("make, height", [(lambda: circle_atlas(4), 0.1),
                                              (tan_chart_pair, 0.12)], ids=["circle4", "tan"])
    def test_between_and_cocycle_reports_match_the_scan(self, monkeypatch, make, height):
        atlas = make()
        n = len(atlas.charts)
        for i in range(n + 1):
            for j in range(n + 1):
                got, want = atlas.between(i, j), scan_between(atlas, i, j)
                assert len(got) == len(want) and all(a is b for a, b in zip(got, want))
        ca = extend_transitions(atlas, height)
        cases = (ca, perturb_transition(ca, 0, 1, 1e-6))
        got = [certify_cocycles(c).to_dict() for c in cases]
        monkeypatch.setattr(RealAtlas, "between", scan_between)
        want = [certify_cocycles(c).to_dict() for c in cases]
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
        assert not got[1]["passed"]


class TestUniqueness:
    def test_same_atlas_is_identity(self, circle3_ext):
        rep = uniqueness_biholomorphism(circle3_ext, circle3_ext)
        assert rep.passed
        assert rep.extras["worst_real_restriction"] == 0.0

    def test_two_heights_identity_on_smaller_strips(self, circle3, circle3_ext):
        ca2 = extend_transitions(circle3, 0.05)
        rep = uniqueness_biholomorphism(circle3_ext, ca2)
        assert rep.passed
        assert all(h <= 0.05 + 1e-12 for h in rep.extras["strip_heights"].values())

    def test_against_annulus_model(self, circle3_ext):
        # the closed-form model w = exp(iz) identifies glued points
        rep = annulus_consistency(circle3_ext)
        assert rep.passed and rep.params == {"tol": 1e-8}
        assert rep.extras["worst_residual"] < 1e-8

    def test_real_restrictions_anchor_the_identity(self, circle3, circle3_ext):
        ca2 = extend_transitions(circle3, 0.07)
        rep = uniqueness_biholomorphism(circle3_ext, ca2)
        assert rep.passed and rep.params == {"tol_real": 1e-12, "tol": 1e-9}
        assert rep.extras["worst_real_restriction"] <= 1e-12


    @staticmethod
    def _without_height(ca, pair):
        heights = {k: h for k, h in ca.heights.items() if k != pair}
        return ComplexAtlas(ca.base, heights, ca.margin_table)

    def test_missing_strip_is_inconclusive(self, circle3_ext):
        rep = uniqueness_biholomorphism(circle3_ext, self._without_height(circle3_ext, (2, 1)))
        assert rep.status == "inconclusive" and not rep.failures
        assert "(2,1)" in rep.extras["reason"]

    def test_recorded_failure_wins_over_missing_strip(self, circle3_ext):
        bad = perturb_transition(circle3_ext, 0, 1, 1e-6)
        rep = uniqueness_biholomorphism(circle3_ext, self._without_height(bad, (2, 1)))
        assert rep.status == "fail"
        assert {f["kind"] for f in rep.failures} == {"real_restriction", "cross_transport"}

    def test_missing_strip_does_not_end_the_comparison(self, circle3_ext):
        # (0, 1) comes first; the perturbed (2, 0) record after it must still be compared
        bad = perturb_transition(circle3_ext, 2, 0, 1e-6)
        rep = uniqueness_biholomorphism(circle3_ext, self._without_height(bad, (0, 1)))
        assert rep.status == "fail"
        assert {tuple(f["pair"]) for f in rep.failures} == {(0, 2), (2, 0)}


class TestFailureFormat:
    @pytest.mark.parametrize("kind, pair, check", [
        ("identity", (0, 0), lambda ca, bad: certify_cocycles(bad)),
        ("cross_transport", (0, 1), uniqueness_biholomorphism),
    ], ids=["identity", "cross_transport"])
    def test_failure_names_kind_residual_and_witness(self, circle3_ext, kind, pair, check):
        rep = check(circle3_ext, perturb_transition(circle3_ext, *pair, 1e-5))
        flagged = [f for f in rep.failures if f["kind"] == kind]
        assert flagged and not rep.passed
        assert {"kind", "residual", "witness"} <= set(flagged[0])
        assert flagged[0]["residual"] == pytest.approx(1e-5, rel=1e-3)
        assert len(flagged[0]["witness"]) == 2
        assert all(math.isfinite(x) for x in flagged[0]["witness"])


class TestAtlasIO:
    def test_json_roundtrip_and_recertification(self, circle3):
        doc = json.dumps(atlas_to_json(circle3))
        atlas2 = atlas_from_json(json.loads(doc))
        assert len(atlas2.charts) == 3
        rep = certify_cocycles(extend_transitions(atlas2, 0.1))
        assert rep.passed

    def test_transition_outside_charts_rejected(self, circle3):
        doc = atlas_to_json(circle3)
        assert doc["transitions"][-1]["i"] == doc["transitions"][-1]["j"] == 2
        doc["transitions"][-1].update(i=5, j=5)  # an identity record of a fourth chart
        with pytest.raises(StructureError, match="outside the atlas"):
            atlas_from_json(doc)

    @pytest.mark.parametrize("mangle", [
        lambda doc: doc.clear(),
        lambda doc: doc["charts"][0].pop("U"),
        lambda doc: doc["transitions"][0].pop("j"),
        lambda doc: doc.update(charts=5),
        lambda doc: doc["transitions"][0].update(overlap=[0.1]),
    ], ids=["empty", "chart-without-U", "transition-without-j", "charts-not-a-list",
            "short-overlap"])
    def test_malformed_document_is_structure_error(self, circle3, mangle):
        doc = atlas_to_json(circle3)
        mangle(doc)
        with pytest.raises(StructureError, match="malformed atlas document"):
            atlas_from_json(doc)

    def test_schema_fields(self, circle3):
        doc = atlas_to_json(circle3)
        assert set(doc) == {"charts", "transitions"}
        assert {"interval", "U", "V"} <= set(doc["charts"][0])
        assert {"i", "j", "overlap", "series"} <= set(doc["transitions"][0])


class TestBuildTransition:
    def test_tangent_numerics(self):
        tr = build_transition(np.tan, 0, 1, (-0.5, 0.5), n_pieces=5,
                              piece_radius=0.45, degree_bound=30)
        xs = np.linspace(-0.45, 0.45, 41).astype(complex)
        vals = tr.eval(xs)
        assert np.max(np.abs(vals - np.tan(xs.real))) < 1e-12

    def test_eval_uses_nearest_covering_piece(self):
        # all five tan pieces share one radius; pieces 1 and 2 both cover z,
        # and piece 2 is anchored nearer
        tr = tan_chart_pair().between(0, 1)[0]
        z = np.array([tr.pieces[2].anchor + 0.01 + 0.02j])
        assert abs(z[0] - tr.pieces[1].anchor) < 0.98 * tr.pieces[1].radius
        assert tr.eval(z) == tr.pieces[2].eval(z)

    @pytest.mark.parametrize("shape", [(7,), (3, 4)])
    def test_eval_without_points_in_the_overlap_is_all_nan(self, shape):
        tr = tan_chart_pair().between(0, 1)[0]
        lo, hi = tr.overlap
        # just beyond either end of the overlap, inside some piece's disc
        zs = np.where(np.arange(math.prod(shape)) % 2, hi + 1e-3, lo - 1e-3).reshape(shape) \
            + 0.01j
        assert any(abs(zs.flat[0] - p.anchor) < p.radius for p in tr.pieces)
        out = tr.eval(zs)
        assert out.shape == shape and np.all(np.isnan(out))
        mixed = tr.eval(np.append(zs.ravel(), 0.5 * (lo + hi)))
        assert np.all(np.isnan(mixed[:-1])) and np.isfinite(mixed[-1])

    def test_piece_tails_bound_true_error(self):
        # true sup error on each piece's circle against its stored tail, with
        # the rounding slack of the germ-space benchmark check
        def worst_excess(tr, fn):
            excess = -math.inf
            for p in tr.pieces:
                zs = p.anchor + p.radius * np.exp(2j * np.pi * np.arange(512) / 512)
                want = fn(zs)
                err = np.max(np.abs(p.eval(zs) - want))
                scale = max(1.0, float(np.max(np.abs(want))))
                excess = max(excess, err - p.tail_bound - 1e-12 * scale)
            return excess

        atlas = tan_chart_pair()
        assert worst_excess(atlas.between(0, 1)[0], np.tan) <= 0
        assert worst_excess(atlas.between(1, 0)[0], np.arctan) <= 0
        # a degree-6 piece of exp truncates visibly, so its tail must be positive
        tr = build_transition(np.exp, 0, 1, (-0.5, 0.5), n_pieces=1, piece_radius=1.0,
                              degree_bound=6)
        assert tr.pieces[0].tail_bound > 1e-6
        assert worst_excess(tr, np.exp) <= 0

    @pytest.mark.parametrize("n_pieces", [0, -2, 2.5])
    def test_piece_count_must_be_a_positive_integer(self, n_pieces):
        # 0 and -2 used to build one piece silently
        with pytest.raises(StructureError, match="n_pieces"):
            build_transition(np.sin, 0, 1, (-0.5, 0.5), n_pieces=n_pieces)

    def test_guards_reject_pole_inside_piece(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(EvaluationError, match="not boundedly holomorphic"):
                build_transition(lambda z: 1.0 / (z - 0.3), 0, 1, (-0.5, 0.5), n_pieces=1,
                                 piece_radius=1.0)

    def test_grid_inverse_identity_on_strip(self):
        atlas = tan_chart_pair()
        ca = extend_transitions(atlas, 0.12)
        fwd = atlas.between(0, 1)[0]
        zs = (np.linspace(-0.35, 0.35, 20)[:, None]
              + 1j * np.linspace(-0.1, 0.1, 20)[None, :]).ravel()
        mid = fwd.eval(zs)
        back = atlas.eval_change(1, 0, mid)
        ok = ~np.isnan(back.real)
        assert np.count_nonzero(ok) > 0.8 * zs.size
        assert np.max(np.abs(back[ok] - zs[ok])) < 1e-10
