"""Edge-sized CLI output (analyze's circuit, DOT, CSV) is written in pieces:
byte for byte what the one-string formatting printed, in bounded memory, and
quiet when the reader goes away."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from conftest import (assert_same_output, enumerate_labeled_graphs, naive_adjacency,
                      rank_gather_analyze)
from domrec import cli, domination, reconfig
from domrec.cli import parse_graph_spec, run_cli
from domrec.domination import dominating_table, domination_profile, format_set
from domrec.graphs import to_graph6
from domrec.reconfig import (
    build_reconfig,
    euler_circuit,
    eulerian_report,
    reconfig_to_csv,
    reconfig_to_dot,
)

SRC = Path(cli.__file__).resolve().parent.parent


# --- the one-string formatting, kept as the oracle ---------------------------


def one_string_text(report: dict, circuit_labels: list[str] | None) -> str:
    """The text report as one string, circuit included."""
    yesno = cli._yesno
    seed = report["seed"]
    rc = report["reconfig"]
    eu = report["euler"]
    lines = [
        f"seed {seed['name']}: n={seed['n']}, edges={seed['edges']}, "
        f"gamma={seed['gamma']}, Gamma={seed['upper_gamma']}, "
        f"well-dominated={yesno(seed['well_dominated'])}, "
        f"universal-threshold={seed['universal_threshold']}",
        f"reconfig k={report['k']}: {rc['node_count']} nodes, {rc['edge_count']} edges",
        "degree histogram: "
        + ", ".join(f"{d}:{c}" for d, c in rc["degree_histogram"].items()),
        f"eulerian: {yesno(eu['is_eulerian'])} "
        f"(odd-degree nodes: {eu['odd_degree_count']}, "
        f"non-trivial components: {eu['nontrivial_component_count']}, "
        f"isolated: {eu['isolated_count']}, connected: {yesno(eu['is_connected'])})",
    ]
    if eu["odd_degree_nodes"]:
        lines.append("odd-degree witnesses: " + ", ".join(eu["odd_degree_nodes"]))
    if "expected_eulerian" in report:
        lines.append(
            f"expected: {yesno(report['expected_eulerian'])}, "
            f"match: {yesno(report['match'])}"
        )
    if circuit_labels is not None:
        walk = " -> ".join(circuit_labels) if circuit_labels else "none"
        lines.append(f"euler circuit: {walk}")
    return "\n".join(lines)


def one_string_analyze(spec_text: str, k_text: str, as_json: bool, circuit: bool) -> str:
    g, spec = parse_graph_spec(spec_text)
    k = cli._parse_k(k_text, g.n)
    table = dominating_table(g)
    r = build_reconfig(g, k, table=table)
    report = cli.analysis_report(g, spec, k, eulerian_report(r), domination_profile(g, table))
    labels = None
    if circuit:
        eu = report["euler"]
        labels = []
        if eu["is_eulerian"] and eu["edge_count"] > 0:
            labels = [format_set(s) for s in euler_circuit(r)]
    if as_json:
        payload = dict(report)
        if labels is not None:
            payload["euler_circuit"] = labels
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return one_string_text(report, labels) + "\n"


def one_string_dot(r, label_style: str = "set") -> str:
    lines = ["graph reconfig {"]
    for i, s in enumerate(r.nodes):
        text = format(s | 1 << r.seed.n, "b")[1:] if label_style == "bits" else format_set(s)
        lines.append(f'  {i} [label="{text}"];')
    for i, nbrs in enumerate(naive_adjacency(r)):
        lines.extend(f"  {i} -- {j};" for j in nbrs if i < j)
    lines.append("}")
    return "\n".join(lines) + "\n"


def one_string_csv(r) -> str:
    lines = ["node_id,neighbor_ids"]
    for i, nbrs in enumerate(naive_adjacency(r)):
        lines.append(f"{i},{' '.join(str(j) for j in nbrs)}")
    return "\n".join(lines) + "\n"


# --- byte identity ------------------------------------------------------------


ANALYZE_CASES = [
    ("cocktail:4", "max", True),
    ("cocktail:6", "max", True),
    ("cocktail:8", "max", True),
    ("path:4", "3", True),  # not Eulerian: an empty circuit
    ("complete:1", "max", True),  # no edges: an empty circuit
    ("union:path:2+cycle:3", "max", True),
    ("g6:Cr", "3", True),
    ("cocktail:6", "max", False),
    ("path:4", "3", False),
]


#: Pieces joined per write: a tiny batch puts a batch boundary in every
#: output, the default puts one only in the longest.
PIECES_PER_WRITE = [2, cli._PIECES_PER_WRITE]


@pytest.mark.parametrize("pieces_per_write", PIECES_PER_WRITE)
@pytest.mark.parametrize("as_json", [True, False])
@pytest.mark.parametrize("spec,k,circuit", ANALYZE_CASES)
def test_analyze_matches_the_one_string_output(spec, k, circuit, as_json, pieces_per_write,
                                               monkeypatch, capsys):
    monkeypatch.setattr(cli, "_PIECES_PER_WRITE", pieces_per_write)
    argv = ["analyze", "--graph", spec, "--k", k] + ["--circuit"] * circuit + ["--json"] * as_json
    assert run_cli(argv) == 0
    assert_same_output(capsys.readouterr().out, one_string_analyze(spec, k, as_json, circuit))


@pytest.mark.parametrize("pieces_per_write", PIECES_PER_WRITE)
def test_analyze_dot_file_matches_the_one_string_output(pieces_per_write, tmp_path,
                                                        monkeypatch, capsys):
    monkeypatch.setattr(cli, "_PIECES_PER_WRITE", pieces_per_write)
    dot_path = tmp_path / "out.dot"
    argv = ["analyze", "--graph", "cocktail:6", "--k", "max", "--circuit", "--json",
            "--dot", str(dot_path)]
    assert run_cli(argv) == 0
    assert_same_output(capsys.readouterr().out, one_string_analyze("cocktail:6", "max", True, True))
    g, _ = parse_graph_spec("cocktail:6")
    assert_same_output(dot_path.read_text(), one_string_dot(build_reconfig(g, g.n)))


EXPORT_SPEC = "union:path:3+cycle:4"


@pytest.mark.parametrize("pieces_per_write", PIECES_PER_WRITE)
@pytest.mark.parametrize("fmt", [["dot", "--labels", "set"], ["dot", "--labels", "bits"], ["csv"]])
def test_export_matches_the_one_string_output(fmt, pieces_per_write, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_PIECES_PER_WRITE", pieces_per_write)
    assert run_cli(["export", "--graph", EXPORT_SPEC, "--format"] + fmt) == 0
    g, _ = parse_graph_spec(EXPORT_SPEC)
    r = build_reconfig(g, g.n)
    expected = one_string_csv(r) if fmt == ["csv"] else one_string_dot(r, fmt[-1])
    assert_same_output(capsys.readouterr().out, expected)


def test_exports_yield_the_one_string_output_line_by_line():
    g, _ = parse_graph_spec(EXPORT_SPEC)
    r = build_reconfig(g, 4)
    for style in ("set", "bits"):
        lines = list(reconfig_to_dot(r, label_style=style))
        assert_same_output("".join(lines), one_string_dot(r, style))
        assert all(line.count("\n") == 1 and line.endswith("\n") for line in lines)
    assert_same_output("".join(reconfig_to_csv(r)), one_string_csv(r))


def test_dot_label_style_is_checked_before_any_line():
    g, _ = parse_graph_spec("path:4")
    with pytest.raises(ValueError, match="label_style"):
        reconfig_to_dot(build_reconfig(g, 3), label_style="hex")


# sha256 of the stdout of `analyze --graph cocktail:12 --k max --circuit
# --json`, recorded when the report was printed as one json.dumps string.
COCKTAIL_12_JSON_SHA256 = "c83775a2d5e5a725083503910d3f31f253a1ff1345f38dbdd0b66f38fa1b1a4c"
COCKTAIL_12_ARGV = ["analyze", "--graph", "cocktail:12", "--k", "max", "--circuit", "--json"]
COCKTAIL_12_EDGES = 24_432  # D_12 of the 12-vertex cocktail party graph


class HashSink(io.TextIOBase):
    """A stdout that hashes what it is sent and keeps none of it."""

    def __init__(self):
        super().__init__()
        self.sha256 = hashlib.sha256()

    def write(self, text):
        self.sha256.update(text.encode())
        return len(text)


def test_cocktail_12_circuit_json_is_unchanged(capsys):
    assert run_cli(COCKTAIL_12_ARGV) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == COCKTAIL_12_JSON_SHA256


def test_analyze_circuit_json_memory_per_edge():
    """The whole command, build and walk included, peaks below 96 bytes per
    edge when its output is not kept; the one-string JSON read about 167."""
    sink = HashSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert run_cli(COCKTAIL_12_ARGV) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.sha256.hexdigest() == COCKTAIL_12_JSON_SHA256
    assert peak / COCKTAIL_12_EDGES < 96


# sha256 of the stdout of `analyze --graph complete:15 --k 2 --circuit`, as
# text and with --json, recorded when each label was formatted by format_set:
# a 211-step circuit through vertices 13 and 14, past the first label table.
COMPLETE_15_SHA256 = {
    False: "43c19eb8bbb0a14880c3994ba6cd1198e7629eeecf86256c1e2ff48273d8255d",
    True: "3e7e6c13b29af42d4b85c50052e73483c2dad62962828bf0c235ded85fd4dba2",
}


@pytest.mark.parametrize("as_json", [False, True])
def test_complete_15_circuit_is_unchanged(as_json, capsys):
    argv = ["analyze", "--graph", "complete:15", "--k", "2", "--circuit"] + ["--json"] * as_json
    assert run_cli(argv) == 0
    out = capsys.readouterr().out
    assert "{13,14}" in out
    assert hashlib.sha256(out.encode()).hexdigest() == COMPLETE_15_SHA256[as_json]


# sha256 of the stdout of `analyze --graph biclique:9,9 --k 3 --circuit
# --json`, recorded from the walk that backtracked in windows of its trail:
# 931 of the 1,297 steps come off the exhausted stack, after 930 pops of the
# trail mid-walk, where the other pinned circuits take 17 steps at most.
BICLIQUE_9_9_JSON_SHA256 = "c4e8cb4b495e2b615d37f6b7047012834c379e342ccdfa2c156ce98b8c39f296"


def test_mostly_backtracking_circuit_is_unchanged(capsys):
    argv = ["analyze", "--graph", "biclique:9,9", "--k", "3", "--circuit", "--json"]
    assert run_cli(argv) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    shape = payload["reconfig"]["node_count"], payload["reconfig"]["edge_count"]
    assert shape + (len(payload["euler_circuit"]),) == (729, 1_296, 1_297)
    assert hashlib.sha256(out.encode()).hexdigest() == BICLIQUE_9_9_JSON_SHA256


# --- circuit labels keyed by mask ---------------------------------------------


def small_eulerian_instances() -> list[tuple[str, str]]:
    """(g6 spec, k) of every D_k with an edge that is Eulerian, over the
    labeled seeds on up to 5 vertices and every k from gamma to n."""
    instances = []
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            table = dominating_table(g)
            for k in range(domination_profile(g, table).gamma, n + 1):
                rep = eulerian_report(build_reconfig(g, k, table=table))
                if rep.is_eulerian and rep.edge_count:
                    instances.append(("g6:" + to_graph6(g), str(k)))
    return instances


@pytest.mark.parametrize("pieces_per_write", PIECES_PER_WRITE)
def test_circuit_matches_the_rank_gather_oracle_on_every_small_labeled_graph(
        pieces_per_write, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_PIECES_PER_WRITE", pieces_per_write)
    instances = small_eulerian_instances()
    assert len(instances) == 159  # of the 4,429 pairs
    for spec, k in instances:
        for as_json in (False, True):
            assert run_cli(["analyze", "--graph", spec, "--k", k, "--circuit"]
                           + ["--json"] * as_json) == 0
            assert_same_output(capsys.readouterr().out, rank_gather_analyze(spec, k, as_json))


#: (spec, k, the labels' container, its length): a list over the 2**n
#: subsets where it costs no more than a dict over the nodes, as on
#: cocktail:10 (1,013 nodes of 1,024 subsets), and a dict on a sparse D_k:
#: complete:13 --k 2 (91 nodes of 8,192), biclique:9,9 --k 3 (729 of 262,144).
LABEL_CONTAINERS = [
    ("cocktail:10", "max", list, 1 << 10),
    ("complete:13", "2", dict, 91),
    ("biclique:9,9", "3", dict, 729),
]


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("spec,k,kind,size", LABEL_CONTAINERS)
def test_circuit_labels_keyed_by_mask_match_the_rank_gather_oracle(spec, k, kind, size, as_json,
                                                                   monkeypatch, capsys):
    expected = rank_gather_analyze(spec, k, as_json)
    containers = []
    write = cli._write_analysis

    def kept(out, report, json_form, walk, labels):
        containers.append(labels)
        write(out, report, json_form, walk, labels)

    monkeypatch.setattr(cli, "_write_analysis", kept)
    assert run_cli(["analyze", "--graph", spec, "--k", k, "--circuit"] + ["--json"] * as_json) == 0
    assert_same_output(capsys.readouterr().out, expected)
    (labels,) = containers
    assert type(labels) is kind and len(labels) == size


#: Mid-density D_k on either side of the list-or-dict rule (cocktail:12
#: --k 6 has 2,497 nodes of 4,096 subsets, --k 4 has 781), and cocktail:14,
#: whose list of labels is doubled from '{}' past the first label table.
MORE_LABEL_CONTAINERS = [
    ("cocktail:12", "6", list, 1 << 12),
    ("cocktail:12", "4", dict, 781),
    ("cocktail:14", "max", list, 1 << 14),
]


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("spec,k,kind,size", MORE_LABEL_CONTAINERS)
def test_more_circuit_labels_match_the_rank_gather_oracle(spec, k, kind, size, as_json,
                                                          monkeypatch, capsys):
    test_circuit_labels_keyed_by_mask_match_the_rank_gather_oracle(spec, k, kind, size, as_json,
                                                                   monkeypatch, capsys)


def test_dense_circuit_lists_no_node(monkeypatch, capsys):
    """On a dense D_k the labels are every subset's, built by doubling: no
    node is listed or formatted.  The sparse complete:13 --k 2, whose labels
    are a dict over its nodes, fails under the same guard."""
    expected = [rank_gather_analyze("cocktail:10", "max", as_json) for as_json in (False, True)]

    def refuse(*_):
        raise AssertionError("node listed")

    monkeypatch.setattr(reconfig.ReconfigGraph, "nodes", property(refuse))
    monkeypatch.setattr(cli, "format_sets", refuse)
    for as_json, text in zip((False, True), expected):
        assert run_cli(["analyze", "--graph", "cocktail:10", "--k", "max", "--circuit"]
                       + ["--json"] * as_json) == 0
        assert_same_output(capsys.readouterr().out, text)
    with pytest.raises(AssertionError, match="node listed"):
        run_cli(["analyze", "--graph", "complete:13", "--k", "2", "--circuit"])


@pytest.mark.parametrize("spec,k", [("cocktail:10", "max"), ("complete:13", "2")])
def test_analyze_circuit_reads_no_rank_array(spec, k, monkeypatch, capsys):
    """The circuit's labels are read off the walk's masks: node_ranks, 4
    bytes for each of the 2**n subsets (128 MiB for the 601 steps of
    complete:25 --k 2), is never called.  export still reads it, and so
    fails here."""
    expected = [rank_gather_analyze(spec, k, as_json) for as_json in (False, True)]

    def refuse(r):
        raise AssertionError("node_ranks called")

    monkeypatch.setattr(reconfig, "node_ranks", refuse)
    for as_json, text in zip((False, True), expected):
        assert run_cli(["analyze", "--graph", spec, "--k", k, "--circuit"]
                       + ["--json"] * as_json) == 0
        assert_same_output(capsys.readouterr().out, text)
    with pytest.raises(AssertionError, match="node_ranks called"):
        run_cli(["export", "--graph", spec, "--k", k, "--format", "csv"])


def test_circuit_labels_build_one_label_table_on_a_narrow_seed(capsys):
    """cocktail:12 has 12 vertices: its labels need only the first table of
    8,192 labels."""
    domination._chunk_labels.cache_clear()
    assert run_cli(COCKTAIL_12_ARGV) == 0
    capsys.readouterr()
    assert domination._chunk_labels.cache_info().currsize == 1


def test_analyze_report_lists_no_node():
    """The report alone reads D_18's 262,125 nodes off its node set: listed,
    they took 11 MiB."""
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_cli(["analyze", "--graph", "cocktail:18", "--k", "max"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


# sha256 of the stdout of `export --graph cocktail:16 --format csv`, recorded
# when the CSV was formatted from a list of sorted neighbour lists.
COCKTAIL_16_CSV_SHA256 = "c7fb6b39f356989a2519a96f5b37fd326d00b387ad9d511585362b32c33ee1b7"


def test_export_csv_lists_no_adjacency():
    """export reads D_16's 65,519 nodes' neighbour ids through one rank array
    of 4 bytes a subset and peaks under 8 MiB when its output is not kept;
    a list of neighbour lists took 19 MiB."""
    sink = HashSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert run_cli(["export", "--graph", "cocktail:16", "--format", "csv"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.sha256.hexdigest() == COCKTAIL_16_CSV_SHA256
    assert peak < 8 << 20


@pytest.mark.parametrize("fmt", ["csv", "dot"])
def test_export_past_the_cap_allocates_no_rank_array(fmt, capsys):
    """export --graph complete:23 (8,388,607 nodes) exits 3 at the node cap
    before node_ranks allocates its 4 bytes a subset, 32 MiB at n = 23:
    with the lattice caches warm, the exit-3 path peaks at 3.2 MiB in both
    formats, where CSV, allocating the array first, peaked at 33 MiB."""
    argv = ["export", "--graph", "complete:23", "--format", fmt]
    assert run_cli(argv) == 3  # builds the lattice caches
    tracemalloc.start()
    try:
        assert run_cli(argv) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err.startswith("capacity error: 8388607 nodes to list")
    assert peak < 16 << 20


# --- errors -------------------------------------------------------------------


def test_unwritable_dot_path_writes_nothing_to_stdout(capsys):
    argv = ["analyze", "--graph", "cocktail:6", "--k", "max", "--circuit", "--json",
            "--dot", "/nonexistent/out.dot"]
    assert run_cli(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: cannot write '/nonexistent/out.dot'")


@pytest.mark.parametrize("argv", [
    ["export", "--graph", "cocktail:12", "--format", "dot"],
    COCKTAIL_12_ARGV,
])
def test_closed_stdout_exits_141_without_a_traceback(argv):
    """A reader that stops early (`domrec ... | head -1`): no traceback, and
    exit 141, not 1, which means a claim failed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "domrec.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        # Hundreds of kilobytes follow, more than a pipe buffers.
        assert proc.stdout.readline() in (b"graph reconfig {\n", b"{\n")
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert stderr == b""
