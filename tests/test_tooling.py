"""The benchmark tracer must resolve every package name it wraps."""

import importlib.util
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
