"""Every claim's `verify --json` report at default bounds equals the golden
catalog recorded with the benchmark, apart from its elapsed time."""

import json
from pathlib import Path

import pytest

from domrec import ClaimId
from domrec.cli import run_cli

GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden" / "catalog.json"

#: The claim that fails by design: its catalogued C4, k=3 bullet is wrong.
KNOWN_DEFECT = ClaimId.BIPARTITE_WELL_DOMINATED


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("claim", list(ClaimId), ids=lambda c: c.value)
def test_verify_report_equals_golden(claim, golden, capsys):
    argv = ["verify", "--claim", claim.value, "--json"]
    if claim is ClaimId.DOMINATING_GRAPH_CHARACTERIZATION:
        # bench/golden/catalog.json holds this claim's report at --max-n 6:
        # the catalog workload that records it leaves n = 7 to labeled-sweep.
        argv += ["--max-n", "6"]
    code = run_cli(argv)
    (report,) = json.loads(capsys.readouterr().out)
    del report["elapsed_seconds"]
    assert report == golden[claim.value]["report"]
    assert code == golden[claim.value]["exit_code"] == (1 if claim is KNOWN_DEFECT else 0)
