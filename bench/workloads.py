"""The benchmark's workloads: inputs drawn from a seed, timed passes, checks.

Each workload builds its inputs in its constructor (part of set-up), runs one
fixed unit of work per `run_pass`, appending one latency sample per verdict
in the ns of the clock `now` it is given, and checks a pass's outputs in
`check`, outside the timed region.
Functions are looked up on their domrec module at each pass, so a tracer's
wrappers are the ones called.

Why these three:
- labeled-sweep is the per-seed pipeline of the n=7 characterization sweep.
  It exercises the domination table and the odd-degree witness thousands of
  times on 2**7-entry tables and never materializes a reconfiguration graph.
- big-circuit is one `analyze --circuit` on a large Eulerian D: one
  2**16-entry table, one large build, report, circuit and JSON output.
- catalog runs every claim of `verify`: labeled enumeration, the claim
  runners' own loops, many small builds, products and domination profiles.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import random
from pathlib import Path
from domrec import cli, graphs, theorems
from domrec.graphs import SeedGraph

import oracle

GOLDEN = Path(__file__).resolve().parent / "golden" / "catalog.json"

#: Claim ids of the catalog at the commit the golden reports were recorded.
CLAIMS = (
    "parity_odd",
    "product_decomposition",
    "mixed_parity_lemma",
    "dominating_graph_characterization",
    "path_cycle",
    "complete_bipartite",
    "cocktail_k",
    "complete_k",
    "universal_gamma_set",
    "corona",
    "bipartite_well_dominated",
    "gamma_formulas",
    "dominating_graph_connected_odd_bipartite",
)

#: The catalog claim that fails by design (C4 with k=3); exit code 1 is correct.
KNOWN_DEFECT = "bipartite_well_dominated"

PROBLEMS_KEPT = 5


def _run_cli(argv: list[str], now) -> tuple[int, str, float]:
    """Exit code, captured stdout and latency (by `now`) of one in-process
    CLI call."""
    buf = io.StringIO()
    start = now()
    with contextlib.redirect_stdout(buf):
        code = cli.run_cli(argv)
    elapsed = now() - start
    return code, buf.getvalue(), elapsed


class Workload:
    """Shared bookkeeping of checked outputs."""

    name = ""
    units_per_pass = 0

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.output_bytes = 0
        self.problems: list[str] = []

    def _record(self, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: PROBLEMS_KEPT - len(self.problems)])


class LabeledSweep(Workload):
    """computed_eulerian(g, 7) against is_cocktail_party(g) over connected
    labeled 7-vertex seeds: uniform 21-bit edge masks, disconnected ones
    rejected, as in the exhaustive sweep."""

    name = "labeled-sweep"
    N = 7
    SEEDS = 10_000
    ORACLE_SEEDS = 400

    def __init__(self, seed: int):
        super().__init__()
        rng = random.Random(seed)
        pairs = oracle.vertex_pairs(self.N)
        self.adjs = []
        while len(self.adjs) < self.SEEDS:
            adj = oracle.adjacency_from_mask(self.N, rng.getrandbits(len(pairs)))
            if oracle.is_connected(adj):
                self.adjs.append(adj)
        self.seeds = [SeedGraph(self.N, adj) for adj in self.adjs]
        self.oracle_seeds = sorted(rng.sample(range(self.SEEDS), self.ORACLE_SEEDS))
        self.units_per_pass = self.SEEDS
        self._oracle_verdicts: dict[int, bool] | None = None

    def run_pass(self, latencies: list[float], now) -> list[tuple[bool, bool]]:
        decide = theorems.computed_eulerian
        expect = graphs.is_cocktail_party
        n = self.N
        verdicts = []
        for g in self.seeds:
            start = now()
            verdict = (decide(g, n), expect(g))
            latencies.append(now() - start)
            verdicts.append(verdict)
        return verdicts

    def check(self, verdicts: list[tuple[bool, bool]], plant: bool):
        """Each verdict must match is_cocktail_party; a seeded subsample is
        decided again by the benchmark's naive oracle."""
        if self._oracle_verdicts is None:
            self._oracle_verdicts = {
                i: oracle.unrestricted_eulerian(self.adjs[i]) for i in self.oracle_seeds
            }
        if plant:
            computed, expected = verdicts[0]
            verdicts[0] = (not computed, expected)
        for i, (computed, expected) in enumerate(verdicts):
            problems = []
            if computed != expected:
                problems.append(f"seed {self.adjs[i]}: computed {computed}, "
                                f"is_cocktail_party {expected}")
            if i in self._oracle_verdicts and computed != self._oracle_verdicts[i]:
                problems.append(f"seed {self.adjs[i]}: computed {computed}, oracle "
                                f"{self._oracle_verdicts[i]}")
            self._record(problems)


class BigCircuit(Workload):
    """`analyze --k max --circuit --json` on a cocktail party graph whose
    vertices are renamed by a permutation drawn from the seed."""

    name = "big-circuit"
    N = 16

    def __init__(self, seed: int):
        super().__init__()
        perm = list(range(self.N))
        random.Random(seed).shuffle(perm)
        self.adj = oracle.cocktail_adjacency(self.N, perm)
        self.argv = ["analyze", "--graph", "g6:" + oracle.to_graph6(self.adj),
                     "--k", "max", "--circuit", "--json"]
        self.units_per_pass = 1
        self._checked: dict[str, list[str]] = {}

    def run_pass(self, latencies: list[float], now) -> list[tuple[int, str]]:
        code, text, elapsed = _run_cli(self.argv, now)
        latencies.append(elapsed)
        return [(code, text)]

    def check(self, outputs: list[tuple[int, str]], plant: bool):
        """Counts against closed forms, the verdict, and a replay of the
        circuit.  An output identical to one already checked is not replayed
        again."""
        for code, text in outputs:
            self.output_bytes += len(text)
            if plant:
                self._record(self._problems(code, text, plant))
                continue
            digest = hashlib.sha256(text.encode()).hexdigest()
            if digest not in self._checked:
                self._checked[digest] = self._problems(code, text, plant)
            self._record(self._checked[digest])

    def _problems(self, code: int, text: str, plant: bool) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        nodes = oracle.cocktail_node_count(self.N)
        edges = oracle.cocktail_edge_count(self.N)
        problems = []
        try:
            report = json.loads(text)
            for section in ("reconfig", "euler"):
                got = (report[section]["node_count"], report[section]["edge_count"])
                if got != (nodes, edges):
                    problems.append(f"{section} counts {got}, expected {(nodes, edges)}")
            if report["euler"]["is_eulerian"] is not True:
                problems.append("is_eulerian is not true")
            if report.get("match") is not True:
                problems.append("match is not true")
            circuit = report["euler_circuit"]
            if plant:
                del circuit[len(circuit) // 2]
            problems += oracle.circuit_problems(self.adj, self.N, circuit, edges)
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"malformed output: {exc!r}")
        return problems


class Catalog(Workload):
    """`verify --claim <id> --json` for every claim at its default bounds,
    serially, in an order drawn from the seed.  The n=7 characterization is
    labeled-sweep's, so that claim runs at --max-n 6."""

    name = "catalog"

    def __init__(self, seed: int):
        super().__init__()
        claims = list(CLAIMS)
        random.Random(seed).shuffle(claims)
        self.argvs = [
            (claim, ["verify", "--claim", claim, "--json"]
             + (["--max-n", "6"] if claim == "dominating_graph_characterization" else []))
            for claim in claims
        ]
        self.golden = json.loads(GOLDEN.read_text())
        self.units_per_pass = sum(
            entry["report"]["instances_checked"] for entry in self.golden.values()
        )

    def run_pass(self, latencies: list[float], now) -> list[tuple[str, int, str]]:
        outputs = []
        for claim, argv in self.argvs:
            code, text, elapsed = _run_cli(argv, now)
            latencies.append(elapsed)
            outputs.append((claim, code, text))
        return outputs

    def check(self, outputs: list[tuple[str, int, str]], plant: bool):
        """Each report must equal the golden one, elapsed time aside, and exit
        0, except the known defect, which exits 1."""
        golden = self.golden
        if plant:
            golden = copy.deepcopy(golden)
            golden[outputs[0][0]]["report"]["instances_checked"] += 1
        for claim, code, text in outputs:
            self.output_bytes += len(text)
            problems = []
            expected_code = 1 if claim == KNOWN_DEFECT else 0
            if code != expected_code or code != golden[claim]["exit_code"]:
                problems.append(f"{claim}: exit code {code}, expected {expected_code}")
            try:
                reports = json.loads(text)
                report = {key: value for key, value in reports[0].items()
                          if key != "elapsed_seconds"}
                if len(reports) != 1 or report != golden[claim]["report"]:
                    problems.append(f"{claim}: report differs from the golden one")
            except (IndexError, KeyError, TypeError, AttributeError, ValueError) as exc:
                problems.append(f"{claim}: malformed output: {exc!r}")
            self._record(problems)


WORKLOADS = {w.name: w for w in (LabeledSweep, BigCircuit, Catalog)}
