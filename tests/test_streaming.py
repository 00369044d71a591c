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

from domrec import cli
from domrec.cli import parse_graph_spec, run_cli
from domrec.domination import dominating_table, domination_profile, format_set
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
            labels = [format_set(r.nodes[i]) for i in euler_circuit(r)]
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
    for i, nbrs in enumerate(r.adjacency):
        lines.extend(f"  {i} -- {j};" for j in nbrs if i < j)
    lines.append("}")
    return "\n".join(lines) + "\n"


def one_string_csv(r) -> str:
    lines = ["node_id,neighbor_ids"]
    for i, nbrs in enumerate(r.adjacency):
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
    assert capsys.readouterr().out == one_string_analyze(spec, k, as_json, circuit)


@pytest.mark.parametrize("pieces_per_write", PIECES_PER_WRITE)
def test_analyze_dot_file_matches_the_one_string_output(pieces_per_write, tmp_path,
                                                        monkeypatch, capsys):
    monkeypatch.setattr(cli, "_PIECES_PER_WRITE", pieces_per_write)
    dot_path = tmp_path / "out.dot"
    argv = ["analyze", "--graph", "cocktail:6", "--k", "max", "--circuit", "--json",
            "--dot", str(dot_path)]
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == one_string_analyze("cocktail:6", "max", True, True)
    g, _ = parse_graph_spec("cocktail:6")
    assert dot_path.read_text() == one_string_dot(build_reconfig(g, g.n))


EXPORT_SPEC = "union:path:3+cycle:4"


@pytest.mark.parametrize("pieces_per_write", PIECES_PER_WRITE)
@pytest.mark.parametrize("fmt", [["dot", "--labels", "set"], ["dot", "--labels", "bits"], ["csv"]])
def test_export_matches_the_one_string_output(fmt, pieces_per_write, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_PIECES_PER_WRITE", pieces_per_write)
    assert run_cli(["export", "--graph", EXPORT_SPEC, "--format"] + fmt) == 0
    g, _ = parse_graph_spec(EXPORT_SPEC)
    r = build_reconfig(g, g.n)
    expected = one_string_csv(r) if fmt == ["csv"] else one_string_dot(r, fmt[-1])
    assert capsys.readouterr().out == expected


def test_exports_yield_the_one_string_output_line_by_line():
    g, _ = parse_graph_spec(EXPORT_SPEC)
    r = build_reconfig(g, 4)
    for style in ("set", "bits"):
        lines = list(reconfig_to_dot(r, label_style=style))
        assert "".join(lines) == one_string_dot(r, style)
        assert all(line.count("\n") == 1 and line.endswith("\n") for line in lines)
    assert "".join(reconfig_to_csv(r)) == one_string_csv(r)


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
