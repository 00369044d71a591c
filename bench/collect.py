"""Run the benchmark over several seeds and write a BENCH results file.

    python3 bench/collect.py --label seed --seeds 1-10 --out bench/results/BENCH_seed.json

For every seed, each workload of BENCHMARK.json runs once untraced
(end-to-end metrics), one after another; the first seed also runs traced
(per-layer metrics).  For each end-to-end metric the file holds the values, their median,
quartiles (`statistics.quantiles(values, n=4)`) and spread, the distance
between the quartiles as a share of the median.  A spread at or above a third
of the metric's bound in BENCHMARK.json is flagged as unsteady, and then
the command exits with 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def machine() -> dict:
    with open("/proc/meminfo") as fh:
        mem_kib = int(fh.readline().split()[1])
    return {
        "nproc": os.cpu_count(),
        "mem_gib": round(mem_kib / 2**20, 1),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = seed_range(args.seeds)

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    traced: dict[str, list[dict]] = {w: [] for w in workloads}
    for i, seed in enumerate(seeds):
        for workload in workloads:
            runs[workload].append(run(workload, seed, seconds, 0))
            if i == 0:
                traced[workload].append(run(workload, seed, seconds, 1))
            print(f"seed {seed} {workload} done", file=sys.stderr, flush=True)

    report = {"label": args.label, "machine": machine(), "run_seconds": seconds,
              "seeds": seeds, "end_to_end": {}, "per_layer": {}}
    steady = True
    for workload in workloads:
        attempted = sum(r["attempted"] for r in runs[workload])
        failed = sum(r["failed"] for r in runs[workload])
        rows = {"fail_rate": {"value": failed / attempted, "attempted": attempted}}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            flag = "" if spread < bounds[name] / 3 else "  UNSTEADY"
            steady = steady and not flag
            rows[name] = {"unit": runs[workload][0]["metrics"][name]["unit"],
                          "median": median, "q1": q1, "q3": q3, "spread": spread,
                          "values": values}
            print(f"{workload:<14} {name:<16} median {median:<12.6g} spread {spread:.4f} "
                  f"(bound {bounds[name]}){flag}")
        report["end_to_end"][workload] = rows
        if traced[workload]:
            report["per_layer"][workload] = {
                name: statistics.median(r["metrics"][name]["value"] for r in traced[workload])
                for name in traced[workload][0]["metrics"]
            }
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
