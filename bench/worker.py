"""Run one workload in a fresh process and print its raw measurements.

    python3 -S bench/worker.py --workload labeled-sweep --seed 1 --seconds 10 [--trace]

The worker starts its reference-speed clock (bench/clock.py) before anything
else, imports domrec from the checkout's `src`, builds the workload's inputs
and prints `ready <wall ns when the clock started> <clock reading>`: the end
of set-up.  It then runs the timed passes of bench/passes.py.  Its last
stdout line is one JSON object; `bench/run.py` turns it into metrics.  `-S`
keeps the host's site-packages hooks out of set-up; domrec needs nothing
from site-packages.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from clock import RefClock

ROOT = Path(__file__).resolve().parent.parent


def import_domrec():
    """Import domrec from this checkout's sources, never from elsewhere."""
    package = ROOT / "src" / "domrec"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no domrec sources at {package}")
    sys.path.insert(0, str(package.parent))
    import domrec

    if Path(domrec.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported domrec from {domrec.__file__}, not {package}")


def main(argv=None) -> int:
    started_ns = time.perf_counter_ns()
    clock = RefClock()
    clock.start()
    # Everything from here to `ready`, imports included, is set-up, timed on
    # the clock.
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--plant", action="store_true",
                        help="corrupt the first pass's output before checking it")
    parser.add_argument("--setup-only", action="store_true",
                        help="exit after set-up, to sample set-up time")
    args = parser.parse_args(argv)

    import_domrec()
    from passes import measure
    from spans import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    print(f"ready {started_ns} {clock.now()}", flush=True)
    if args.setup_only:
        clock.stop()
        return 0
    tracer = Tracer(clock.now) if args.trace else None
    try:
        result = measure(workload, clock, args.seconds, args.plant, tracer)
    finally:
        clock.stop()
        if tracer is not None:
            tracer.uninstall()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
