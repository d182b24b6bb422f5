"""Time one cold set-up of a workload in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py <workload>``.  Prints the seconds
from before ``import germlie`` to the end of the warm-up call, then the median
time of the reference loop (refspeed.py) measured right after.  ``run.py``
starts this several times per run and reports the median set-up time, at the
reference speed, as ``setup_s``.
"""

import sys
import time
from pathlib import Path


def main() -> int:
    t0 = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    wl = workloads.WORKLOADS[sys.argv[1]]
    wl.warm(wl.setup())
    setup_s = time.perf_counter() - t0
    import refspeed

    print(repr(setup_s), repr(refspeed.setup_reference()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
