"""The benchmark tracer must resolve every package name it wraps, and the
benchmark's own self-test must pass."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_traced_name():
    tracing = load_tracer()
    tr = tracing.Tracer()  # resolves each traced callable; a missing name raises
    assert set(tr.stats) == {span[2] for span in tracing.SPANS}
    assert tr.spans == [] and tr.ops == 0


def test_traced_stack_class_is_the_one_series_runs():
    # a copy of the class under the tracer's module name would be wrapped while
    # nothing ran it, and every fastseries.* counter would read 0
    import germlie._fastseries
    import germlie.series
    assert germlie._fastseries.SeriesStack is germlie.series.SeriesStack


def test_benchmark_selftest_passes():
    # the tracer's structural pins (mul counts, aliases, spans) break tier-1 too
    root = TRACER.parent.parent
    done = subprocess.run([sys.executable, str(root / "perfbench" / "selftest.py")],
                          cwd=root, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
