"""The timed passes of one workload, run inside a worker (bench/worker.py).

Every time is read on the worker's reference-speed clock (bench/clock.py).
Passes run until `seconds` of wall time have been spent in them, each
checked after it ends.  With a tracer, passes alternate between traced
(first) and untraced, so both kinds see the same stretches of the host.
Every time is a median over the passes of its kind.
"""

from __future__ import annotations

import gc
import resource
from array import array
import statistics
import time

from clock import RefClock
from spans import layer_metrics
from workloads import CLAIMS

#: Passes per run at the least, so the medians have several samples.
MIN_PASSES = 4


def _max_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _figures(passes: list[array]) -> dict:
    """wall_s is the median over the passes of a pass's summed latencies.
    Each verdict's latency is its median over the passes, and the
    percentiles are taken over those, so they describe the verdicts, not
    the rare pass a timer interrupt or a slow stretch of the host hit."""
    sums = [sum(latencies) / 1e9 for latencies in passes]
    verdicts = [statistics.median(column) for column in zip(*passes)]
    cuts = (statistics.quantiles(verdicts, n=100, method="inclusive")
            if len(verdicts) > 1 else verdicts * 99)
    return {"passes": len(passes), "pass_s": sums, "sum_s": statistics.median(sums),
            "p50_ns": cuts[49], "p99_ns": cuts[98]}


def measure(workload, clock: RefClock, seconds: float, plant: bool, tracer=None) -> dict:
    """Timed passes, each followed by its check, until `seconds` of wall time
    have been spent in passes.  Every pass times the same verdicts in the
    same order."""
    plain: list[array] = []
    traced: list[array] = []
    layers: list[dict] = []
    wall_s = 0.0
    peak_rss_mib = 0.0
    while len(plain) + len(traced) < MIN_PASSES or wall_s < seconds:
        tracing = tracer is not None and len(traced) <= len(plain)
        gc.collect()
        if tracing:
            tracer.install()
        latencies = array("d")
        start = time.perf_counter()
        outputs = workload.run_pass(latencies, clock.now)
        wall_s += time.perf_counter() - start
        if tracing:
            tracer.uninstall()
            layers.append(layer_metrics(tracer.take(), CLAIMS))
            traced.append(latencies)
        else:
            if not plain:
                # before any check runs, so the mark is the program's alone
                peak_rss_mib = _max_rss_mib()
            plain.append(latencies)
        workload.check(outputs, plant and len(plain) + len(traced) == 1)
        del outputs
    result = {
        "untraced": _figures(plain),
        "units_per_pass": workload.units_per_pass,
        "peak_rss_mib": peak_rss_mib,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "problems": workload.problems,
    }
    if tracer is not None:
        result["traced"] = _figures(traced)
        output_bytes = workload.output_bytes / (len(plain) + len(traced))
        result["layers"] = _layer_medians(layers, output_bytes)
        result["absent"] = tracer.absent()
    return result


def _layer_medians(layers: list[dict], output_bytes: float) -> dict:
    """Each per-layer metric's median over the traced passes; a peak-RSS rise
    is summed instead, since the high-water mark rises in the first pass."""
    merged = {}
    for name, metric in layers[0].items():
        values = [layer[name]["value"] for layer in layers]
        value = sum(values) if name.endswith("maxrss_growth_mib") else statistics.median(values)
        merged[name] = {"value": value, "unit": metric["unit"]}
    merged["cli.output_bytes"] = {"value": output_bytes, "unit": "bytes"}
    return merged
