"""domrec benchmark: one workload, its end-to-end or per-layer metrics.

    python3 bench/run.py --workload labeled-sweep --seed 1 --seconds 30 --trace 0

Workloads: labeled-sweep, big-circuit, catalog (see bench/workloads.py).
Run from the root of a domrec checkout; domrec is imported from its `src`.

--trace 0 prints the end-to-end metrics.  The timed passes run in one fresh
worker process, so its peak RSS is the workload's alone.  Every time is read
on the worker's reference-speed clock (bench/clock.py): on a host shared
with other tenants the same code runs up to twice as slow for stretches of
seconds to minutes, and that clock scales such stretches out.  wall_s is
the median over the run's passes of a pass's summed verdict latencies; the
latency percentiles are taken over the verdicts, each at its median latency
over the passes; and setup_s is
the median of several set-ups in fresh processes, some before and some after
the timed worker.

--trace 1 prints the per-layer metrics.  One worker alternates passes with
the spans of bench/spans.py installed and passes without them; each layer
metric is its median over the traced passes, and trace.overhead_ratio is the
traced passes' median wall_s over the untraced passes' median, minus 1.

--plant corrupts the first pass's output before it is checked (the workload's
own corruption: a flipped verdict, a dropped circuit step or an altered
golden field), to show that the checks catch it: fail_rate must rise above 0.

Every metric is printed by name and unit; the last stdout line is one JSON
object with keys correct, attempted, failed and metrics.  Workers run one at
a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("labeled-sweep", "big-circuit", "catalog")
SETUP_SAMPLES = 11
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def run_worker(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start one worker and wait for it; return its set-up time and its JSON
    result.  A watchdog kills the worker at the deadline.

    The set-up time runs from starting the process to its `ready` line:
    wall time up to the moment the worker's clock starts (the interpreter
    starting, which does not slow down with the host as interpreter work
    does), then the worker's reference-speed clock.  perf_counter is the
    system-wide monotonic clock, so the two processes' readings compare."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    start_ns = time.perf_counter_ns()
    proc = subprocess.Popen(
        [sys.executable, "-S", str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env,
    )
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    ready, _, times = line.partition(" ")
    if proc.returncode != 0 or ready != "ready":
        raise BenchError(f"worker {args} failed with exit code {proc.returncode}")
    clock_started_ns, clock_ns = map(float, times.split())
    setup_s = (clock_started_ns - start_ns + clock_ns) / 1e9
    lines = rest.strip().splitlines()
    return setup_s, json.loads(lines[-1]) if lines else None


def setup_samples(base: list[str], count: int, deadline: float) -> list[float]:
    return [run_worker(base + ["--setup-only"], deadline)[0] for _ in range(count)]


def end_to_end(workload: str, seed: int, seconds: float, plant: bool, deadline: float):
    base = ["--workload", workload, "--seed", str(seed)]
    before = setup_samples(base, SETUP_SAMPLES // 2, deadline)
    setup_s, result = run_worker(
        base + ["--seconds", str(seconds)] + (["--plant"] if plant else []), deadline)
    after = setup_samples(base, SETUP_SAMPLES - len(before) - 1, deadline)
    setups = before + [setup_s] + after
    median = result["untraced"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (median["sum_s"], "s"),
        "seeds_per_s": (result["units_per_pass"] / median["sum_s"], "1/s"),
        "verdict_us.p50": (median["p50_ns"] / 1e3, "us"),
        "verdict_us.p99": (median["p99_ns"] / 1e3, "us"),
        "peak_rss_mib": (result["peak_rss_mib"], "MiB"),
    }
    print(f"{workload}: seed {seed}, set-ups "
          + " ".join(f"{t:.3f}" for t in setups)
          + f" s; {median['passes']} passes of " + " ".join(f"{t:.3f}" for t in median["pass_s"])
          + " s")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, [result]


def per_layer(workload: str, seed: int, seconds: float, plant: bool, deadline: float):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace"]
    _, result = run_worker(args + (["--plant"] if plant else []), deadline)
    traced, untraced = result["traced"], result["untraced"]
    metrics = result["layers"]
    overhead = traced["sum_s"] / untraced["sum_s"] - 1
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    print(f"{workload}: seed {seed}, traced passes of "
          + " ".join(f"{t:.3f}" for t in traced["pass_s"]) + " s, untraced passes of "
          + " ".join(f"{t:.3f}" for t in untraced["pass_s"])
          + " s; per-layer values are medians per traced pass")
    if result["absent"]:
        print("absent layers (reported as 0): " + ", ".join(result["absent"]))
    return metrics, [result]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="domrec benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant", action="store_true",
                        help="corrupt the first pass's output; fail_rate must exceed 0")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "domrec" / "__init__.py").is_file():
        print(f"error: no domrec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, results = measure(args.workload, args.seed, args.seconds, args.plant, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for name, metric in metrics.items():
        print(f"  {name:<48} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'fail_rate':<48} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} outputs failed their check)")
    for problem in [p for r in results for p in r["problems"]]:
        print(f"  check failed: {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
