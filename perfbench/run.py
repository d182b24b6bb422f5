"""Closed-loop benchmark of germlie: one workload per invocation.

Usage::

    python3 perfbench/run.py --workload bch-sweep --seed 1 --seconds 28 --trace 0

One caller issues one op at a time and waits for it.  Inputs come from
``--seed`` and are drawn before timing starts; every op's output is checked
between ops, outside the timed region.  ``--trace 0`` reports the end-to-end
metrics, with times scaled to the reference speed of ``refspeed.py``;
``--trace 1`` reports the per-layer metrics of a traced run (see README.md).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are for people.  Run records go to ``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

# One BLAS thread: with the single caller that keeps the process at two
# threads, within the two cores the benchmark is sized for.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 3    # the run's own set-up plus fresh-interpreter probes
TAIL_BEYOND = 10     # op_tail_ms: highest percentile with this many ops above it
REF_WINDOW = 2       # an op's speed reference: the median over this many ops either side

END_TO_END = (("setup_s", "s"), ("items_per_s", "items/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MiB"))


class OpFailed(Exception):
    """The op itself raised; the round stops."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a name from workloads.WORKLOADS")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "germlie").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "caller_threads": 1,
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


def probe_setup(workload: str) -> tuple:
    """``(set-up seconds, reference seconds)`` of a fresh interpreter."""
    out = subprocess.run([sys.executable, str(Path(__file__).with_name("setup_probe.py")),
                          workload], capture_output=True, text=True, check=True, timeout=120)
    setup_s, ref_s = out.stdout.strip().splitlines()[-1].split()
    return float(setup_s), float(ref_s)


def measure(wl, ctx, pool, seconds, tracer, reference):
    """Run rounds over the pool until ``seconds`` of wall time have passed.

    Returns the op records ``[latency_s, items, traced, ok, reference_s]`` and
    the first failure messages.  ``reference()`` runs right before and right
    after every op, outside its timed region and outside tracing;
    ``reference_s`` is the mean of the two.  With a tracer every second round
    is traced.
    """
    ops = []
    failures = []
    traced = False

    def timed(items, fn):
        rec = [0.0, items, traced, True, 0.0]
        ops.append(rec)
        before = reference()
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            return fn()
        except Exception as exc:
            rec[3] = False
            raise OpFailed(f"op raised {exc!r}") from exc
        finally:
            rec[0] = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
            rec[4] = 0.5 * (before + reference())

    start = time.perf_counter()
    r = 0
    while time.perf_counter() - start < seconds:
        traced = tracer is not None and r % 2 == 1
        try:
            wl.run_round(ctx, pool[r % len(pool)], timed)
        except OpFailed as exc:
            failures.append(str(exc))
        except Exception as exc:  # a check failed, or could not even be evaluated
            ops[-1][3] = False
            failures.append(repr(exc))
        r += 1
    return ops, failures


def rate(recs) -> float:
    busy = sum(rec[0] for rec in recs)
    return sum(rec[1] for rec in recs) / busy if busy else 0.0


def end_to_end(ops, setups) -> tuple:
    """The end-to-end metrics, times at the reference speed (see refspeed.py).

    Each op is scaled by the median reference time of the ops around it, which
    follows the host's phases and smooths the reference loop's own jitter.
    ``setups`` holds ``(set-up seconds, reference seconds)`` pairs.
    """
    import refspeed

    refs = [rec[4] for rec in ops]
    scaled = [rec[0] * refspeed.NOMINAL_S
              / statistics.median(refs[max(i - REF_WINDOW, 0):i + REF_WINDOW + 1])
              for i, rec in enumerate(ops)]
    lat = sorted(scaled)
    n = len(lat)
    # With TAIL_BEYOND ops or fewer no percentile qualifies: report the slowest
    # op, and main() marks the run incorrect.
    tail_idx = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    values = {
        "setup_s": statistics.median(t * refspeed.NOMINAL_S / r for t, r in setups),
        "items_per_s": sum(rec[1] for rec in ops) / sum(scaled),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * lat[tail_idx],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    tail_note = {"percentile": 100.0 * (tail_idx + 1) / n, "ops": n,
                 "ops_beyond": n - tail_idx - 1}
    return {name: (values[name], unit) for name, unit in END_TO_END}, tail_note


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "germlie" / "__init__.py").is_file():
        print(f"germlie sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)  # before numpy loads BLAS; probes inherit it

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    import refspeed

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    ctx = wl.setup()
    wl.warm(ctx)
    setups = [(time.perf_counter() - t0, refspeed.setup_reference())]
    if not args.trace:
        setups += [probe_setup(wl.name) for _ in range(SETUP_REPEATS - 1)]

    pool = wl.make_inputs(ctx, args.seed)
    digest = workloads.input_digest(pool)
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
    ops, failures = measure(wl, ctx, pool, args.seconds, tracer, refspeed.reference_time)

    attempted = len(ops)
    failed = sum(1 for rec in ops if not rec[3])
    env = run_environment(args.seed)
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "attempted": attempted, "failed": failed,
              "fail_frac": failed / attempted if attempted else 1.0,
              "failures": failures[:20], "inputs": {"pool": len(pool), "sha256": digest},
              "op_latency_s": [rec[0] for rec in ops],
              "op_reference_s": [rec[4] for rec in ops]}
    if args.trace:
        untraced = rate([rec for rec in ops if not rec[2]])
        overhead = 1.0 - rate([rec for rec in ops if rec[2]]) / untraced if untraced else 0.0
        metrics = tracer.per_layer(overhead)
        record["traced_ops"] = tracer.ops
    else:
        metrics, tail_note = end_to_end(ops, setups)
        record["setup_samples_s"] = setups
        record["op_tail"] = tail_note
        record["wall"] = {"items_per_s": rate(ops),
                          "op_p50_ms": 1e3 * statistics.median(rec[0] for rec in ops),
                          "setup_s": statistics.median(t for t, _ in setups)}

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"inputs {len(pool)} (sha256 {digest[:16]})")
    print(f"ops attempted {attempted}  failed {failed}  fail_frac {record['fail_frac']:.4g} ratio")
    for msg in failures[:5]:
        print(f"  failure: {msg}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:.6g} {unit}")
    if not args.trace:
        note = record["op_tail"]
        print(f"  op_tail_ms is the p{note['percentile']:.1f} latency: "
              f"{note['ops_beyond']} of {note['ops']} ops lie above it")
        print("  times are at the reference speed (refspeed.py); raw wall figures: "
              + "  ".join(f"{k} {v:.6g}" for k, v in record["wall"].items()))
    print("env " + json.dumps(env, sort_keys=True))

    OUT_DIR.mkdir(exist_ok=True)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.write_spans(OUT_DIR / f"spans-{wl.name}.jsonl",
                           {"workload": wl.name, "seed": args.seed, "traced_ops": tracer.ops})

    if not args.trace and attempted <= TAIL_BEYOND:
        print(f"only {attempted} ops: op_tail_ms needs more than {TAIL_BEYOND}", file=sys.stderr)
    correct = failed == 0 and attempted > (0 if args.trace else TAIL_BEYOND)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
