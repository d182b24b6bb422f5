"""Print one ``sha256  name`` line per output that the package's numbers reach.

Usage: ``python3 tools/output_digest.py`` (no options).  The artifacts are

* every file ``germlie --suite all --seed 7 --trials 200`` writes, and its stdout;
* the stdout of each script in ``demos/``;
* the coefficients, radii and tails of seeded ``bch_pairs`` calls at batch
  sizes 1, 3 and 34;
* ``MatrixLieBackend.bch`` on a seeded batch of 2 x 2 matrices;
* the ``input_digest`` of each benchmark workload's seed-1 input pool
  (``perfbench/workloads.py``, imported without writing bytecode), so a
  library change that moves the benchmark's inputs shows up here;
* per case of ``GLUE_CASES`` in ``tests/test_complexify.py``, the heights and
  margin table (or the extension error) and the four glueing reports, as JSON;
* over the first 8 items of the group-charts workload's seed-1 pool, the
  coefficients, radii and tails (and, of group germs, ``cert_margin``) of the
  ``exp_germ``, ``log_germ``, ``power``, ``germ_bch``, ``mul``, ``inv`` and
  ``adjoint`` results of that workload's op, and the adjoint's bound;
* for three seeded ``random_spline_curve``s, ``evol(curve, 64)``'s endpoint
  coefficients and tails, every trajectory node's coefficients, tails and
  ``cert_margin``, and its error estimate, and the extras of
  ``smoothness_report`` against a second seeded spline;
* the JSON documents of a seeded scalar and a seeded 2 x 2 series
  (``series_json_dumps``), of ``circle_atlas(3)`` and ``tan_chart_pair()``
  (``atlas_to_json``) and of a seeded ``GermGroupElement``;
* on seeded scalar, vector(3) and 2 x 2 families whose anchors have
  different radii, ``TruncatedSeries.sample_sup`` of every anchor's series,
  ``BHolElement.sample_sup``, the ``family_convergence_check`` extras and the
  ``ratio_topology_spotcheck`` extras.

Two checkouts that print the same lines give the same bits on all of them.
The package is imported from this checkout's ``src``, and every file the
runs write goes to a temporary directory.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]
sys.dont_write_bytecode = True

from germlie.complexify import atlas_to_json, circle_atlas, tan_chart_pair  # noqa: E402
from germlie.evolution import evol, random_spline_curve, smoothness_report  # noqa: E402
from germlie.germgroup import (  # noqa: E402
    GermLieGroup,
    random_algebra_element,
    random_group_element,
)
from germlie.germspace import (  # noqa: E402
    BHolElement,
    GermSpace,
    family_convergence_check,
    ratio_topology_spotcheck,
)
from germlie.matrixlie import MatrixLieBackend  # noqa: E402
from germlie.series import (  # noqa: E402
    TruncatedSeries,
    matrix_space,
    scalar_space,
    series_json_dumps,
    vector_space,
)
import test_complexify  # noqa: E402
import workloads  # noqa: E402


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_python(args, cwd) -> bytes:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          check=True)
    return done.stdout


def cli_lines(tmp: Path):
    out = tmp / "reports"
    stdout = run_python(["-m", "germlie", "--suite", "all", "--seed", "7", "--trials", "200",
                         "--out", str(out)], tmp)
    yield digest(stdout), "cli/stdout"
    for path in sorted(out.iterdir()):
        yield digest(path.read_bytes()), f"cli/{path.name}"


def demo_lines(tmp: Path):
    for script in sorted((ROOT / "demos").glob("*.py")):
        yield digest(run_python([str(script)], tmp)), f"demos/{script.name}"


def matrix_group() -> GermLieGroup:
    space = GermSpace(anchors=(0.0, 1.5 + 0.5j), base_radius=1.0, ratio=0.1, levels=6,
                      space=matrix_space(2), degree_bound=12)
    return GermLieGroup(space, MatrixLieBackend(2, 8))


def bch_lines():
    group = matrix_group()
    backend = group.backend
    rng = np.random.default_rng(7)
    for size in (1, 3, 34):
        pairs = [tuple(random_algebra_element(group, rng, 0.03) for _ in range(2))
                 for _ in range(size)]
        out = group.bch_pairs(pairs)
        for field in ("coeffs", "radius", "tail"):
            data = b"".join(np.ascontiguousarray(getattr(z, field)).tobytes() for z in out)
            yield digest(data), f"bch_pairs/{size}/{field}"
    x, y = (0.02 * (rng.standard_normal((50, 2, 2)) + 1j * rng.standard_normal((50, 2, 2)))
            for _ in range(2))
    yield digest(backend.bch(x, y).tobytes()), "MatrixLieBackend.bch"


def evol_lines():
    group = matrix_group()
    for seed in (3, 11, 29):
        rng = np.random.default_rng(seed)
        curve, direction = (random_spline_curve(group, rng) for _ in range(2))
        res = evol(curve, 64)
        end = res.endpoint.element
        yield digest(end.coeffs.tobytes() + end.tail.tobytes()), f"evol/{seed}/endpoint"
        nodes = [g.element.coeffs.tobytes() + g.element.tail.tobytes() for g in res.trajectory]
        yield digest(b"".join(nodes)), f"evol/{seed}/trajectory"
        margins = np.array([g.cert_margin for g in res.trajectory])
        yield digest(margins.tobytes()), f"evol/{seed}/cert_margin"
        yield digest(np.float64(res.error_estimate).tobytes()), f"evol/{seed}/error_estimate"
        extras = smoothness_report(group, curve, direction).extras
        yield digest(json.dumps(extras, sort_keys=True).encode()), f"smoothness/{seed}/extras"


def pool_lines():
    for name, wl in workloads.WORKLOADS.items():
        yield workloads.input_digest(wl.make_inputs(wl.setup(), 1)), f"pool/{name}"


def germ_bytes(out) -> bytes:
    """Coefficients, radii and tails of an algebra or group germ, and a group germ's margin."""
    el = getattr(out, "element", out)
    margin = [np.float64(out.cert_margin)] if out is not el else []
    return b"".join(np.ascontiguousarray(p).tobytes()
                    for p in (el.coeffs, el.radius, el.tail, *margin))


def group_lines():
    wl = workloads.WORKLOADS["group-charts"]
    group = wl.setup().group
    outputs = {name: [] for name in ("exp_germ", "log_germ", "power", "germ_bch", "mul", "inv",
                                     "adjoint")}
    for item in wl.make_inputs(wl.setup(), 1)[:8]:
        x, y, gamma, eta = item["x"], item["y"], item["gamma"], item["eta"]
        gx, g_rt = group.exp_germ(x), group.exp_germ(item["eta_rt"])
        ad_eta, bound = group.adjoint(gamma, eta)
        for name, out in (("exp_germ", gx), ("exp_germ", g_rt),
                          ("log_germ", group.log_germ(g_rt)),
                          ("power", group.power(gx, item["n"])),
                          ("germ_bch", group.germ_bch(x, y)),
                          ("mul", group.mul(gx, group.exp_germ(y))),
                          ("mul", group.mul(group.mul(gamma, group.exp_germ(eta)),
                                            group.inv(gamma))),
                          ("inv", group.inv(gamma)), ("adjoint", ad_eta)):
            outputs[name].append(germ_bytes(out))
        outputs["adjoint"].append(np.float64(bound).tobytes())
    for name, chunks in outputs.items():
        yield digest(b"".join(chunks)), f"group/{name}"


def complexify_lines():
    for name in test_complexify.GLUE_CASES:
        data = json.dumps(test_complexify.glue_outputs(name), sort_keys=True).encode()
        yield digest(data), f"complexify/{name}"


def json_lines():
    rng = np.random.default_rng(17)
    for name, space in (("scalar", scalar_space()), ("matrix2", matrix_space(2))):
        shape = (13,) + space.shape
        coeffs = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
            * (0.6 ** np.arange(13)).reshape((-1,) + (1,) * len(space.shape))
        series = TruncatedSeries(0.3 - 0.2j, 12, coeffs, 0.8, 1e-13, space)
        yield digest(series_json_dumps(series).encode()), f"json/series/{name}"
    for name, atlas in (("circle3", circle_atlas(3)), ("tan", tan_chart_pair())):
        data = json.dumps(atlas_to_json(atlas), sort_keys=True).encode()
        yield digest(data), f"json/atlas/{name}"
    element = random_group_element(matrix_group(), rng)
    yield digest(json.dumps(element.to_json(), sort_keys=True).encode()), "json/group_element"


def sample_lines():
    rng = np.random.default_rng(23)
    counts = (1, 7, 128, 256)
    for name, cs in (("scalar", scalar_space()), ("vector3", vector_space(3)),
                     ("matrix2", matrix_space(2))):
        space, space2 = (GermSpace(anchors=(0.0, 0.4 + 0.1j, -0.3j), ratio=ratio, levels=4,
                                   space=cs, degree_bound=12) for ratio in (0.1, 0.15))
        shape = (4, 3, 13) + cs.shape
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        radii, tails = rng.uniform(0.5, 1.0, (4, 3)), rng.uniform(0.0, 1e-3, (4, 3))
        family = [BHolElement(space, 0, c, r, t) for c, r, t in zip(coeffs, radii, tails)]
        sups = [s.sample_sup(rho, n) for el in family for s in el.reps
                for rho in (None, 0.5 * s.radius) for n in counts]
        yield digest(np.array(sups).tobytes()), f"sample/series/{name}"
        sups = [el.sample_sup(n) for el in family for n in counts]
        yield digest(np.array(sups).tobytes()), f"sample/element/{name}"
        extras = [family_convergence_check(family, R=1.0, r=0.1, sup_samples=n).extras
                  for n in counts]
        yield digest(json.dumps(extras, sort_keys=True).encode()), f"sample/family/{name}"
        extras = ratio_topology_spotcheck(space, space2, family).extras
        yield digest(json.dumps(extras, sort_keys=True).encode()), f"sample/ratio/{name}"


def main() -> int:
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for line in (*cli_lines(tmp), *demo_lines(tmp), *bch_lines(), *pool_lines(),
                     *group_lines(), *complexify_lines(),
                     *evol_lines(), *json_lines(), *sample_lines()):
            print("  ".join(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
