"""Self-test of the benchmark's tracer, inputs and metric lists.

Usage: ``python3 perfbench/selftest.py`` from the repository root.  Exits 0
when every check passes and prints one line per check.  Checks:

* ``SeriesStack.mul`` runs exactly 376 times per ``bch_pairs`` call at BCH
  order 8, whatever the batch size (188 brackets, two products each);
* ``evol`` makes exactly one ``SeriesStack.exp`` per product-integral step;
* ``series.multiply`` calls made through the ``germgroup`` and ``evolution``
  aliases are traced, nested inside the ``germgroup.mul`` and
  ``evolution.log_derivative`` spans, and the originals come back after
  ``uninstall``;
* no span is recorded while the tracer is not installed;
* each workload draws an equally sized input pool from two seeds, the same
  pool again from the same seed, and a different pool from another seed;
* ``BENCHMARK.json`` lists exactly the metrics ``run.py`` and the tracer emit.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from germlie import evolution, germgroup, series  # noqa: E402


class SelfTestFailure(Exception):
    pass


def expect(ok, message):
    if not ok:
        raise SelfTestFailure(message)


def spans_named(tr, name):
    return [s for s in tr.spans if s[2] == name]


def ancestors(tr, span):
    by_id = {s[0]: s for s in tr.spans}
    out = []
    parent = span[1]
    while parent != -1:
        out.append(by_id[parent][2])
        parent = by_id[parent][1]
    return out


def traced(tr, fn):
    tr.install()
    try:
        return fn()
    finally:
        tr.uninstall()


def check_mul_per_bch(group, rng):
    for batch in (1, 3, 34):
        tr = tracing.Tracer()
        pairs = [tuple(germgroup.random_algebra_element(group, rng, 0.03) for _ in range(2))
                 for _ in range(batch)]
        traced(tr, lambda: group.bch_pairs(pairs))
        calls = tr.stats["fastseries.SeriesStack.mul"][0]
        expect(calls == 376, f"{calls} SeriesStack.mul calls for {batch} pairs, expected 376")
        brackets = tr.counts["matrixlie.brackets"]
        expect(brackets == 188, f"{brackets} brackets per BCH, expected 188")
    return "SeriesStack.mul: 376 calls per bch_pairs at batch sizes 1, 3 and 34"


def check_exp_per_step(group, rng):
    curve = workloads.random_spline_curve(group, rng)
    tr = tracing.Tracer()
    traced(tr, lambda: evolution.evol(curve, 8))
    exps = tr.stats["fastseries.SeriesStack.exp"][0]
    steps = tr.counts["evolution.evol.steps"]
    expect(steps == 8 + 16, f"evol(8) with step doubling counted {steps} steps, expected 24")
    expect(exps == steps, f"{exps} SeriesStack.exp calls for {steps} steps")
    return f"evol: one SeriesStack.exp per step ({exps} for {steps})"


def check_aliases(group, rng):
    tr = tracing.Tracer()
    g, h = (germgroup.random_group_element(group, rng, 0.2) for _ in range(2))
    tr.install()
    try:
        expect(hasattr(series.multiply, "__wrapped__"), "series.multiply is not wrapped")
        expect(germgroup.series_multiply is series.multiply
               and evolution.series_multiply is series.multiply,
               "an alias of series.multiply is not wrapped")
        group.mul(g, h)
    finally:
        tr.uninstall()
    mults = spans_named(tr, "series.multiply")
    n_anchors = len(group.space.anchors)
    expect(len(mults) == n_anchors, f"{len(mults)} multiply spans in germgroup.mul")
    expect(all("germgroup.mul" in ancestors(tr, s) for s in mults),
           "a series.multiply span lies outside germgroup.mul")

    ident = group.identity(1).element
    gcurve = evolution.GroupCurve(group, (0.0, 1.0), (
        (ident, germgroup.random_algebra_element(group, rng, 0.1)),))
    tr = tracing.Tracer()
    traced(tr, lambda: evolution.log_derivative(gcurve, 0.3))
    direct = [s for s in spans_named(tr, "series.multiply")
              if ancestors(tr, s)[:1] == ["evolution.log_derivative"]]
    expect(len(direct) == n_anchors,
           f"{len(direct)} multiply spans directly under evolution.log_derivative")

    expect(not hasattr(germgroup.series_multiply, "__wrapped__"), "wrapper left installed")
    expect(not hasattr(evolution.evol, "__wrapped__"), "wrapper left installed")
    expect(not hasattr(germgroup.GermLieGroup.mul, "__wrapped__"), "wrapper left installed")
    return "aliases: series.multiply traced inside germgroup.mul and evolution spans"


def check_idle(group, rng):
    tr = tracing.Tracer()
    x, y = (germgroup.random_algebra_element(group, rng, 0.03) for _ in range(2))
    group.germ_bch(x, y)
    expect(not tr.spans and not tr.counts, "spans recorded while not installed")
    return "tracer records nothing while not installed"


def check_seeds():
    sizes = []
    for wl in workloads.WORKLOADS.values():
        ctx = wl.setup()
        a, b, a2 = (wl.make_inputs(ctx, s) for s in (1, 2, 1))
        da, db, da2 = (workloads.input_digest(p) for p in (a, b, a2))
        expect(len(a) == len(b) == wl.pool_size, f"{wl.name}: pool sizes {len(a)}, {len(b)}")
        expect(da == da2, f"{wl.name}: seed 1 drew two different pools")
        expect(da != db, f"{wl.name}: seeds 1 and 2 drew the same pool")
        sizes.append(f"{wl.name} {len(a)}")
    return "seeds 1 and 2: equal pool sizes, different inputs (" + ", ".join(sizes) + ")"


def check_metric_lists():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in doc["end_to_end"]]
    expect(e2e == list(run.END_TO_END), f"end_to_end differs from run.py: {e2e}")
    layer = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    expect(layer == tracing.PER_LAYER, "per_layer differs from tracer.PER_LAYER")
    names = {w["name"] for w in doc["workloads"]}
    expect(names == set(workloads.WORKLOADS), f"workloads differ: {names}")
    return f"BENCHMARK.json lists {len(e2e)} end-to-end and {len(layer)} per-layer metrics"


def main() -> int:
    group = workloads.matrix_group()
    rng = np.random.default_rng(7)
    checks = [lambda: check_mul_per_bch(group, rng), lambda: check_exp_per_step(group, rng),
              lambda: check_aliases(group, rng), lambda: check_idle(group, rng),
              check_seeds, check_metric_lists]
    failed = 0
    for fn in checks:
        try:
            print("ok   " + fn())
        except SelfTestFailure as exc:
            failed += 1
            print(f"FAIL {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
