"""Record the catalog workload's golden reports from this checkout's domrec.

    python3 bench/record_golden.py

Writes bench/golden/catalog.json: per claim, the exit code and the JSON
report of `verify --claim <id> --json` at the catalog workload's bounds,
without `elapsed_seconds`.  Re-record only when a change to the reports is
intended, and say so where the change is described.
"""

import json
from time import perf_counter_ns

from worker import import_domrec

import_domrec()

from workloads import GOLDEN, Catalog, _run_cli  # noqa: E402

golden = {}
for claim, argv in sorted(Catalog(0).argvs):
    code, text, _ = _run_cli(argv, perf_counter_ns)
    (report,) = json.loads(text)
    del report["elapsed_seconds"]
    golden[claim] = {"exit_code": code, "report": report}
GOLDEN.write_text(json.dumps(golden, sort_keys=True, indent=1) + "\n")
