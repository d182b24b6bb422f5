"""Chart glueing for 1-d complexifications of real-analytic atlases.

A :class:`RealAtlas` is a finite family of interval charts with nested
subintervals V_i inside U_i inside T_i (positive margins) and real-analytic
transition maps given as truncated series with real anchors and real
coefficients on the pairwise overlaps.  ``build_transition`` extracts them
from callables piece by piece, each piece with a data-driven tail.  A chart
pair may meet in several components (on the circle, deck translates), each
carried by its own :class:`Transition` record.  ``extend_transitions``
evaluates the same series at complex arguments over rectangles
``overlap x (-h, h)``, shrinking the strip height until the mutual-inverse
identity ``psi_ji(psi_ij(z)) = z`` holds on a sample grid; ``certify_cocycles``
then samples psi_ii = id, mutual inverses, and the triple cocycle identity
``psi_ij = psi_kj o psi_ik`` wherever triple overlaps exist.  These grid
checks are sampled, not proofs: every comparison is the largest residual over
a finite grid.  Each check evaluates all of its grids as one stack, with one
evaluation per transition record per stage.  Glueing the rectangles along the
sampled transitions produces the complexified manifold; Hausdorffness is
certified through the positive-margin sufficient condition recorded in the
margin table, never by point-separation search.

``uniqueness_biholomorphism`` compares two extensions of the same real
atlas: per chart the identity extends, and transporting across one atlas's
transitions then back through the other's must return every grid point --
the executable content of the statement that the germ of a complexification
around the compact set is unique.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ExtensionError, StructureError
from .reports import Report
from .series import (
    TruncatedSeries,
    cauchy_series,
    scalar_space,
    series_from_json,
    series_to_json,
)

__all__ = [
    "ChartInterval",
    "Transition",
    "RealAtlas",
    "ComplexAtlas",
    "build_transition",
    "identity_transition",
    "extend_transitions",
    "certify_cocycles",
    "perturb_transition",
    "uniqueness_biholomorphism",
    "annulus_consistency",
    "circle_atlas",
    "tan_chart_pair",
    "atlas_to_json",
    "atlas_from_json",
]

_EVAL_SAFETY = 0.98  # stay strictly inside each piece's validity disc
_GRID_N = 20  # sample points per side of every comparison grid
_INVERSE_TOL = 1e-10  # mutual-inverse residual at which a strip height is kept
_MIN_HEIGHT_FACTOR = 1e-3  # extend_transitions gives up below this share of the height
_CIRCLE_DEGREE = 8  # degree bound of circle_atlas's translations
_TAN_DEGREE = 30  # degree bound of tan_chart_pair's transitions
_REAL_TOL = 1e-12  # uniqueness: the two atlases' transitions agree on real arguments
_TRANSPORT_TOL = 1e-9  # uniqueness: transport by one atlas, back by the other
_ANNULUS_TOL = 1e-8  # glued circle against the annulus model w = exp(i z)


@dataclass(frozen=True)
class ChartInterval:
    """Nested chart intervals V inside U inside T with positive margins."""

    t_lo: float
    t_hi: float
    u_lo: float
    u_hi: float
    v_lo: float
    v_hi: float

    def __post_init__(self):
        chain = (self.t_lo, self.u_lo, self.v_lo, self.v_hi, self.u_hi, self.t_hi)
        if any(b <= a for a, b in zip(chain, chain[1:])):
            raise StructureError(
                "chart intervals must nest strictly: t_lo < u_lo < v_lo < v_hi < u_hi < t_hi")

    @property
    def margins(self) -> tuple:
        return (self.u_lo - self.t_lo, self.v_lo - self.u_lo,
                self.u_hi - self.v_hi, self.t_hi - self.u_hi)


@dataclass(frozen=True)
class Transition:
    """One overlap component of the chart change i -> j, in i coordinates."""

    i: int
    j: int
    overlap: tuple  # (lo, hi) in chart-i coordinates
    pieces: tuple   # TruncatedSeries with real anchors inside the overlap

    def __post_init__(self):
        lo, hi = self.overlap
        if not lo < hi:
            raise StructureError("empty overlap interval")
        if not self.pieces:
            raise StructureError(f"transition ({self.i},{self.j}) has no series pieces")
        # tuples, so that the stacked checks can group rows by record
        object.__setattr__(self, "overlap", (lo, hi))
        object.__setattr__(self, "pieces", tuple(self.pieces))
        for p in self.pieces:
            if abs(np.imag(p.anchor)) > 1e-14:
                raise StructureError("transition anchors must be real")
            if np.max(np.abs(np.imag(p.coeffs))) > 1e-12:
                raise StructureError("transition coefficients must be real")

    def eval(self, zs: np.ndarray) -> np.ndarray:
        """Evaluate on the overlap rectangle by the nearest covering piece; NaN outside.

        The map is only defined over its overlap interval: points whose real
        part leaves it belong to a different overlap component.
        """
        zs = np.asarray(zs, dtype=complex)
        out = np.full(zs.shape, np.nan + 0j)
        lo, hi = self.overlap
        slack = 1e-9 * max(1.0, hi - lo)
        inside = (zs.real >= lo - slack) & (zs.real <= hi + slack)
        if not inside.any():
            return out
        # best distance so far; 0 outside the overlap, where no piece is nearer
        best, pick = np.where(inside, np.inf, 0.0), np.full(zs.shape, -1)
        for i, p in enumerate(self.pieces):
            dist = np.abs(zs - p.anchor)
            nearer = (dist < best) & (dist < _EVAL_SAFETY * p.radius)
            best[nearer], pick[nearer] = dist[nearer], i
        for i, p in enumerate(self.pieces):
            mask = pick == i
            if np.any(mask):
                out[mask] = p.eval(zs[mask])
        return out

    def convergence_radius_estimate(self) -> float:
        """Cauchy-Hadamard estimate from coefficient decay, times a safety factor 0.8.

        Polynomial-like tails give estimates capped by the stored validity
        radius (the series asserts nothing beyond it).
        """
        best = math.inf
        for p in self.pieces:
            norms = np.abs(p.coeffs)
            est = p.radius
            for k in range(2, p.degree_bound + 1):
                if norms[k] > 1e-13:
                    est = min(est, float(norms[k] ** (-1.0 / k)))
            best = min(best, 0.8 * est)
        return best


def _translation(anchor: float, shift: float, radius: float,
                 degree_bound: int) -> TruncatedSeries:
    """The series of z -> z + shift around ``anchor``."""
    return TruncatedSeries.from_coeff_list([(0, anchor + shift), (1, 1.0)], anchor, radius,
                                           scalar_space(), degree_bound)


def identity_transition(i: int, overlap: tuple, radius: float,
                        degree_bound: int = 24) -> Transition:
    mid = 0.5 * (overlap[0] + overlap[1])
    return Transition(i, i, overlap, (_translation(mid, 0.0, radius, degree_bound),))


def build_transition(fn, i: int, j: int, overlap: tuple, n_pieces: int = 3,
                     piece_radius: float | None = None, degree_bound: int = 24) -> Transition:
    """Transition from a real-analytic callable, one extracted piece per anchor.

    The ``n_pieces`` anchors split the overlap evenly.  Each piece is
    :func:`~germlie.series.cauchy_series` of ``fn`` at ``piece_radius``
    (default 1.2 times the piece width): it passes the extractor's guards,
    is valid on 0.64 * piece_radius and carries its data-driven tail.  The
    piece keeps the real part of its coefficients; the majorant of the
    dropped imaginary part (quadrature rounding for maps real on the real
    axis) joins the tail.  ``fn`` takes a 1-d complex array of points and
    returns one value per point (a scalar return is a constant), as
    :func:`~germlie.series.cauchy_series` requires.
    """
    if not (isinstance(n_pieces, (int, np.integer)) and n_pieces >= 1):
        raise StructureError(f"n_pieces must be an integer >= 1, got {n_pieces!r}")
    lo, hi = overlap
    anchors = np.linspace(lo, hi, n_pieces + 2)[1:-1]
    width = (hi - lo) / n_pieces
    radius = piece_radius if piece_radius is not None else 1.2 * width
    pieces = []
    for a in anchors:
        s = cauchy_series(fn, float(a), radius, degree_bound, scalar_space())
        dropped = float(np.sum(np.abs(s.coeffs.imag) * s.radius ** np.arange(degree_bound + 1)))
        pieces.append(TruncatedSeries(s.anchor, degree_bound, s.coeffs.real + 0j, s.radius,
                                      s.tail_bound + dropped, s.space))
    return Transition(i, j, overlap, tuple(pieces))


@dataclass(frozen=True)
class RealAtlas:
    charts: tuple
    transitions: tuple
    _by_pair: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_pair = {}
        for tr in self.transitions:
            by_pair.setdefault((tr.i, tr.j), []).append(tr)
        object.__setattr__(self, "_by_pair", {p: tuple(trs) for p, trs in by_pair.items()})
        for tr in self.transitions:
            if not (0 <= tr.i < len(self.charts) and 0 <= tr.j < len(self.charts)):
                raise StructureError(f"transition ({tr.i},{tr.j}) names a chart outside the atlas")
            if tr.i == tr.j:
                continue
            if not self.between(tr.j, tr.i):
                raise StructureError(
                    f"transition ({tr.i},{tr.j}) lacks any inverse record ({tr.j},{tr.i})")

    def between(self, i: int, j: int) -> tuple:
        """All overlap-component records of the ordered pair (i, j), in the
        order of ``transitions``."""
        return self._by_pair.get((i, j), ())

    def eval_change(self, i: int, j: int, zs: np.ndarray) -> np.ndarray:
        """Chart change on points of chart i; components have disjoint domains."""
        zs = np.asarray(zs, dtype=complex)
        out = np.full(zs.shape, np.nan + 0j)
        for tr in self.between(i, j):
            todo = np.isnan(out.real)
            if not np.any(todo):
                break
            out[todo] = tr.eval(zs[todo])
        return out

    def records(self):
        return [tr for tr in self.transitions if tr.i != tr.j]


@dataclass(frozen=True)
class ComplexAtlas:
    """A complexification: strips over the real charts, glued by the
    analytically continued transitions that passed the sampled checks."""

    base: RealAtlas
    heights: dict  # (i, j) -> sampled strip half-height
    margin_table: tuple  # ((i, j), margin_kind, value) records, all positive

    def height(self, i: int, j: int) -> float:
        return self.heights[(i, j)]


def _grids(overlaps: list, heights: list) -> np.ndarray:
    """One row of _GRID_N x _GRID_N points per overlap (lo, hi) and strip
    half-height h: the middle 80 % of the overlap times (-h, h)."""
    lo, hi = np.asarray(overlaps, dtype=float).reshape(-1, 2).T
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo) * 0.8
    xs = np.linspace(mid - half, mid + half, _GRID_N, axis=-1)
    ys = np.linspace(-np.asarray(heights, dtype=float), heights, _GRID_N, axis=-1)
    return (xs[:, :, None] + 1j * ys[:, None, :]).reshape(len(lo), _GRID_N ** 2)


def _apply_rows(fn, keys, zs: np.ndarray, src=None) -> np.ndarray:
    """Row t of the result is ``fn(*keys[t], points)`` on row ``src[t]`` of
    ``zs`` (row t if None): one call per distinct key, over all of its rows.
    Both maps used here send NaN points to NaN."""
    src = np.arange(len(keys)) if src is None else src
    out, rows = np.empty((len(keys), zs.shape[1]), complex), {}
    for t, key in enumerate(keys):
        rows.setdefault(key, []).append(t)
    for key, ts in rows.items():
        out[ts] = fn(*key, zs[src[ts]])
    return out


def _record(rep: Report, worst: dict, tols: dict, tags, diff: np.ndarray,
            zs: np.ndarray) -> np.ndarray:
    """One trial per ``(r, kind, where)`` of ``tags``, in order, where row r of
    ``diff = got - want`` is defined anywhere: its largest modulus there is the
    worst of ``kind`` and, above ``tols[kind]``, a failure ``{"kind", **where,
    "residual", "witness"}``.  Returns the rows that recorded a trial."""
    ok = ~np.isnan(diff.real)
    res = np.where(ok, np.abs(diff), -1.0)
    at, live = np.argmax(res, axis=1), ok.any(axis=1)
    for r, kind, where in tags:
        if live[r]:
            v, w = float(res[r, at[r]]), zs[r, at[r]]
            worst[kind] = max(worst[kind], v)
            rep.trials += 1
            if v > tols[kind]:
                rep.fail({"kind": kind, **where, "residual": v, "witness": [w.real, w.imag]})
    return live


def extend_transitions(atlas: RealAtlas, height: float) -> ComplexAtlas:
    """Continue every transition to a strip, sampling the mutual inverses.

    Per overlap record the strip half-height starts at ``height`` (rejected
    outright if any coefficient-decay estimate of the convergence radius
    falls short) and shrinks by 0.7 until
    ``max |psi_ji(psi_ij(z)) - z| <= 1e-10`` on the sample grid; the height of
    a pair is the worst over its components.  Each round checks the grids of
    all pending records as one stack, one evaluation per record per stage.  A
    height that is not finite and positive raises :class:`StructureError`.
    """
    if not (math.isfinite(height) and height > 0):
        raise StructureError(f"strip height must be finite and positive, got {height}")
    records = atlas.records()
    for tr in records:
        est = tr.convergence_radius_estimate()
        if est <= height:
            raise ExtensionError(
                f"transition ({tr.i},{tr.j}): convergence-radius estimate {est:.4g} "
                f"does not clear the requested height {height:.4g}")
    held_at, pending, h = {}, records, height  # the pending records share h
    while pending:
        zs = _grids([tr.overlap for tr in pending], [h] * len(pending))
        mid = _apply_rows(Transition.eval, [(tr,) for tr in pending], zs)
        diff = _apply_rows(atlas.eval_change, [(tr.j, tr.i) for tr in pending], mid) - zs
        ok = ~np.isnan(diff.real)
        held = (ok.sum(axis=1) >= 0.5 * zs.shape[1]) & \
            (np.where(ok, np.abs(diff), -1.0).max(axis=1) <= _INVERSE_TOL)
        held_at.update((tr, h) for tr, good in zip(pending, held) if good)
        pending = [tr for tr, good in zip(pending, held) if not good]
        h *= 0.7
        if pending and h < height * _MIN_HEIGHT_FACTOR:
            raise ExtensionError(f"transition ({pending[0].i},{pending[0].j}): mutual-inverse "
                                 f"check fails at every height down to {h / 0.7:.3g}")
    heights: dict = {}
    for tr in records:
        heights[(tr.i, tr.j)] = min(held_at[tr], heights.get((tr.i, tr.j), math.inf))
    # symmetrize: a pair holds at the worst of its two directions
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


def certify_cocycles(ca: ComplexAtlas, tol: float = 1e-9) -> Report:
    """Sample psi_ii = id, mutual inverses and triple cocycles on grids, to a finite tol > 0.

    All grids of the call form one stack, evaluated in two stages: one
    :meth:`Transition.eval` per record over every row that uses it (the
    identity values, the first maps and the direct maps psi_ij of the
    cocycles), then one :meth:`RealAtlas.eval_change` per chart pair.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise StructureError(f"cocycle tolerance must be finite and positive, got {tol}")
    rep = Report(check="cocycle_certification", params={"tol": tol, "grid_n": _GRID_N})
    atlas = ca.base
    worst = {"identity": 0.0, "inverse": 0.0, "cocycle": 0.0}
    # one row per grid: overlap, half-height, first map, chart change, (kind, where)
    rows = [(tr.overlap, ca.height(i, i) * 0.5, (tr,), None, ("identity", {"chart": i}))
            for i in range(len(atlas.charts)) for tr in atlas.between(i, i)]
    n_id = len(rows)
    rows += [(tr.overlap, ca.height(tr.i, tr.j), (tr,), (tr.j, tr.i),
              ("inverse", {"pair": [tr.i, tr.j]})) for tr in atlas.records()]
    n_inv, directs = len(rows), []  # the cocycle rows' psi_ij
    for i, j, k in itertools.permutations(range(len(atlas.charts)), 3):
        for t_ij in atlas.between(i, j):
            for t_ik in atlas.between(i, k):
                lo = max(t_ij.overlap[0], t_ik.overlap[0])
                hi = min(t_ij.overlap[1], t_ik.overlap[1])
                if lo < hi:
                    h = min(ca.height(i, j), ca.height(i, k), ca.height(k, j))
                    rows.append(((lo, hi), h, (t_ik,), (k, j), ("cocycle", {"triple": [i, j, k]})))
                    directs.append((t_ij,))
    overlaps, heights, firsts, pairs, tags = zip(*rows) if rows else [()] * 5
    zs, n = _grids(overlaps, heights), len(rows)
    vals = _apply_rows(Transition.eval, firsts + tuple(directs), zs, np.r_[:n, n_inv:n])
    got, direct = vals[:n], vals[n:]
    got[n_inv:][np.isnan(direct.real)] = np.nan  # psi_ij defines each cocycle's target
    got[n_id:] = _apply_rows(atlas.eval_change, pairs[n_id:], got[n_id:])
    got[:n_inv] -= zs[:n_inv]
    got[n_inv:] -= direct
    live = _record(rep, worst, dict.fromkeys(worst, tol),
                   [(r, *tag) for r, tag in enumerate(tags)], got, zs)
    checked = {tuple(w["triple"]) for (_, w), r in zip(tags[n_inv:], live[n_inv:]) if r}
    rep.extras = {"worst_residuals": worst, "triples_checked": len(checked)}
    if rep.trials:
        rep.note_margin(tol - max(worst.values()))
    return rep


def perturb_transition(ca: ComplexAtlas, i: int, j: int, amount: float) -> ComplexAtlas:
    """Copy of the atlas with the first (i, j) record offset by ``amount``;
    :class:`StructureError` if the atlas has no (i, j) record."""
    trs = list(ca.base.transitions)
    for n, tr in enumerate(trs):
        if (tr.i, tr.j) == (i, j):
            pieces = []
            for p in tr.pieces:
                coeffs = p.coeffs.copy()
                coeffs[0] += amount
                pieces.append(replace(p, coeffs=coeffs))
            trs[n] = replace(tr, pieces=tuple(pieces))
            return ComplexAtlas(RealAtlas(ca.base.charts, tuple(trs)), ca.heights,
                                ca.margin_table)
    raise StructureError(f"the atlas has no ({i},{j}) transition record")


def uniqueness_biholomorphism(ca1: ComplexAtlas, ca2: ComplexAtlas) -> Report:
    """Sample the identity germ between two complexifications of one real atlas.

    Chart by chart the identity map extends to the common strip; what needs
    checking is that the two glueings identify the same points, i.e. for
    every overlap record the transitions agree on real arguments (to
    ``tol_real``, the Identity-Theorem anchor) and transporting by one
    atlas's transition then returning through the other's inverse is the
    identity on the common complex grid (to ``tol``).  Records without a
    common strip are skipped; a failed comparison makes the report fail,
    otherwise a skipped record makes it inconclusive.
    """
    rep = Report(check="uniqueness_biholomorphism",
                 params={"tol_real": _REAL_TOL, "tol": _TRANSPORT_TOL})
    if len(ca1.base.charts) != len(ca2.base.charts):
        raise StructureError("atlases complexify different chart systems")
    worst = {"real_restriction": 0.0, "cross_transport": 0.0}
    final_heights = {}
    missing = None
    records, hs = [], []
    for t1 in ca1.base.records():
        i, j = t1.i, t1.j
        h = min(ca1.height(i, j), ca2.heights.get((i, j), 0.0))
        if h <= 0:
            missing = missing or f"no common strip for pair ({i},{j})"
            continue
        final_heights[f"{i},{j}"] = min(h, final_heights.get(f"{i},{j}", math.inf))
        records.append(t1)
        hs.append(h)
    lo, hi = np.asarray([t.overlap for t in records], dtype=float).reshape(-1, 2).T
    xs = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), _GRID_N ** 2, axis=-1) + 0j
    v1 = _apply_rows(Transition.eval, [(t,) for t in records], xs)
    v2 = _apply_rows(ca2.base.eval_change, [(t.i, t.j) for t in records], xs)
    zs = _grids([t.overlap for t in records], hs)
    mid = _apply_rows(Transition.eval, [(t,) for t in records], zs)
    back = _apply_rows(ca2.base.eval_change, [(t.j, t.i) for t in records], mid)
    # the real restriction, then the cross transport, of each record
    _record(rep, worst, {"real_restriction": _REAL_TOL, "cross_transport": _TRANSPORT_TOL},
            [(r + s * len(records), kind, {"pair": [t.i, t.j]}) for r, t in enumerate(records)
             for s, kind in enumerate(worst)],
            np.concatenate([v1 - v2, back - zs]), np.concatenate([xs, zs]))
    rep.extras.update({"worst_real_restriction": worst["real_restriction"],
                       "worst_cross_transport": worst["cross_transport"],
                       "strip_heights": final_heights})
    rep.note_margin(_TRANSPORT_TOL - worst["cross_transport"])
    if missing and rep.status != "fail":
        rep.inconclusive(missing)
    return rep


def annulus_consistency(ca: ComplexAtlas) -> Report:
    """Compare a circle glueing against the closed-form annulus model.

    The annulus realization w = exp(i z) must send equivalent points
    (z in chart i, psi_ij(z) in chart j) to the same w; the worst mismatch
    over all transition records and grids is the distance between the glued
    manifold and the standard model in exponential coordinates.
    """
    rep = Report(check="annulus_model_consistency", params={"tol": _ANNULUS_TOL})
    worst = {"annulus": 0.0}
    records = ca.base.records()
    zs = _grids([tr.overlap for tr in records], [ca.height(tr.i, tr.j) for tr in records])
    vals = _apply_rows(Transition.eval, [(tr,) for tr in records], zs)
    _record(rep, worst, {"annulus": _ANNULUS_TOL},
            [(r, "annulus", {"pair": [tr.i, tr.j]}) for r, tr in enumerate(records)],
            np.exp(1j * vals) - np.exp(1j * zs), zs)
    rep.extras = {"worst_residual": worst["annulus"]}
    rep.note_margin(_ANNULUS_TOL - worst["annulus"])
    return rep


# ---------------------------------------------------------------------------
# stock atlases
# ---------------------------------------------------------------------------

def circle_atlas(n_charts: int = 3, overlap_frac: float = 0.55) -> RealAtlas:
    """Angle charts of the circle R/2pi with translation transitions.

    Chart i covers an interval of half-width ``(1/2 + overlap_frac) * 2pi/n``
    centered at ``2 pi i / n``.  Every nonempty intersection of chart i with
    a deck translate of chart j becomes one overlap record whose transition
    is the corresponding translation; ``overlap_frac > 1/2`` creates triple
    overlaps, making the cocycle checks nonvacuous.  Intersections shorter
    than 1e-9 get no record, and :class:`StructureError` is raised when two
    neighbouring charts are left without one (the charts would not cover
    the circle).
    """
    if n_charts < 2:
        raise StructureError("need at least two charts")
    if not (math.isfinite(overlap_frac) and overlap_frac > 0):
        raise StructureError(f"overlap_frac must be finite and positive, got {overlap_frac}")
    two_pi = 2.0 * math.pi
    width = two_pi / n_charts
    half = (0.5 + overlap_frac) * width
    if 2 * half >= two_pi:
        raise StructureError("charts must not cover the whole circle")
    charts = []
    intervals = []
    for i in range(n_charts):
        c = i * width
        m1, m2 = 0.1 * half, 0.2 * half
        charts.append(ChartInterval(c - half, c + half, c - half + m1, c + half - m1,
                                    c - half + m2, c + half - m2))
        intervals.append((c - half, c + half))

    transitions = []
    for i in range(n_charts):
        for j in range(n_charts):
            if i == j:
                continue
            for deck in (-1, 0, 1):
                lo = max(intervals[i][0], intervals[j][0] + deck * two_pi)
                hi = min(intervals[i][1], intervals[j][1] + deck * two_pi)
                if hi - lo < 1e-9:
                    continue
                mid = 0.5 * (lo + hi)
                radius = 2.0 * (hi - lo) + 1.0
                shift = _translation(mid, -deck * two_pi, radius, _CIRCLE_DEGREE)
                transitions.append(Transition(i, j, (lo, hi), (shift,)))
    linked = {(tr.i, tr.j) for tr in transitions}
    for i in range(n_charts):
        if (i, (i + 1) % n_charts) not in linked:
            raise StructureError(f"charts {i} and {(i + 1) % n_charts} get no overlap record: "
                                 f"overlap_frac {overlap_frac:.3g} leaves less than 1e-9")
    for i in range(n_charts):
        ch = charts[i]
        transitions.append(identity_transition(i, (ch.t_lo, ch.t_hi),
                                               2.0 * (ch.t_hi - ch.t_lo), _CIRCLE_DEGREE))
    return RealAtlas(tuple(charts), tuple(transitions))


def tan_chart_pair() -> RealAtlas:
    """Two interval charts related by the tangent map on the overlap."""
    charts = (
        ChartInterval(-0.62, 0.62, -0.58, 0.58, -0.5, 0.5),
        ChartInterval(math.tan(-0.62), math.tan(0.62),
                      math.tan(-0.58), math.tan(0.58),
                      math.tan(-0.5), math.tan(0.5)),
    )
    fwd = build_transition(np.tan, 0, 1, (-0.5, 0.5), n_pieces=5,
                           piece_radius=0.45, degree_bound=_TAN_DEGREE)
    bwd = build_transition(np.arctan, 1, 0, (math.tan(-0.5), math.tan(0.5)),
                           n_pieces=5, piece_radius=0.5, degree_bound=_TAN_DEGREE)
    ident0 = identity_transition(0, (-0.62, 0.62), 2.5, _TAN_DEGREE)
    ident1 = identity_transition(1, (math.tan(-0.62), math.tan(0.62)), 3.0, _TAN_DEGREE)
    return RealAtlas(charts, (fwd, bwd, ident0, ident1))


# ---------------------------------------------------------------------------
# JSON atlas input format
# ---------------------------------------------------------------------------

def atlas_to_json(atlas: RealAtlas) -> dict:
    return {
        "charts": [
            {"interval": [c.t_lo, c.t_hi], "U": [c.u_lo, c.u_hi], "V": [c.v_lo, c.v_hi]}
            for c in atlas.charts
        ],
        "transitions": [
            {"i": tr.i, "j": tr.j, "overlap": [tr.overlap[0], tr.overlap[1]],
             "series": [series_to_json(p) for p in tr.pieces]}
            for tr in atlas.transitions
        ],
    }


def atlas_from_json(doc: dict) -> RealAtlas:
    """The atlas of an :func:`atlas_to_json` document; :class:`StructureError`
    if the document is malformed."""
    try:
        charts = tuple(
            ChartInterval(c["interval"][0], c["interval"][1], c["U"][0], c["U"][1],
                          c["V"][0], c["V"][1])
            for c in doc["charts"]
        )
        transitions = tuple(
            Transition(t["i"], t["j"], (t["overlap"][0], t["overlap"][1]),
                       tuple(series_from_json(s) for s in t["series"]))
            for t in doc["transitions"]
        )
        return RealAtlas(charts, transitions)
    except StructureError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise StructureError(f"malformed atlas document: {exc!r}") from exc
