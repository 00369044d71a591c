"""CLI: spec parsing, subcommands, exit codes, output stability."""

import errno
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from domrec import cli, domination
from domrec.cli import parse_graph_spec, run_cli
from domrec.domination import format_set
from domrec.errors import (
    BoundBelowGamma,
    BoundExceeded,
    CapacityExceeded,
    ClaimUnknown,
    DomrecError,
    GraphSpecError,
    MalformedGraph6,
    ReconfigTooLarge,
)
from domrec.graphs import FamilySpec, make_family

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(cli.__file__).resolve().parent.parent


SPEC_EXAMPLES = [
    "path:7", "cycle:7", "complete:5", "biclique:3,4", "star:5",
    "cocktail:6", "turan:6,3", "corona:path:3", "union:path:2+cycle:3",
    "g6:A_",
]


@pytest.mark.parametrize("text", SPEC_EXAMPLES)
def test_every_documented_spec_parses(text):
    g, _ = parse_graph_spec(text)
    assert g.n >= 1


def _readme_specs() -> list[str]:
    """The backticked specs of README's "Graph specs" paragraph, less those
    with a <placeholder> and those without a ':' (such as `u v`)."""
    paragraph = README.read_text().split("Graph specs:", 1)[1].split("\n\n", 1)[0]
    return [spec for spec in re.findall(r"`([^`]+)`", paragraph)
            if ":" in spec and "<" not in spec]


def test_readme_specs_parse():
    specs = _readme_specs()
    assert "biclique:3,4" in specs and "union:path:2+cycle:3" in specs
    for text in specs:
        g, _ = parse_graph_spec(text)
        assert g.n >= 1


def test_readme_library_example_does_what_its_comments_say(capsys):
    """The README's "Library" block runs, and prints and holds what its
    comments state for D_4 of the 7-cycle."""
    block = README.read_text().split("## Library", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(block, scope)
    r, rep, walk = scope["r"], scope["rep"], scope["walk"]
    assert (r.node_count, r.edge_count) == (42, 56)
    assert r.nodes[0] == 19 and format_set(r.nodes[0]) == "{0,1,4}"
    assert rep.degree_histogram == ((2, 28), (4, 14))
    assert rep.is_eulerian is True
    assert len(walk) == 57
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("DominationProfile(gamma=3, upper_gamma=3,")
    assert printed[1:] == ["19 {0,1,4}", "((2, 28), (4, 14))", "True"]


def test_spec_round_trips_to_family():
    g, spec = parse_graph_spec("biclique:3,4")
    assert spec == FamilySpec.complete_bipartite(3, 4)
    assert g == make_family(spec)
    g, spec = parse_graph_spec("corona:path:3")
    assert spec == FamilySpec.corona(FamilySpec.path(3))
    g, spec = parse_graph_spec("union:path:2+cycle:3")
    assert spec == FamilySpec.disjoint_union(FamilySpec.path(2), FamilySpec.cycle(3))
    assert g.n == 5


def test_spec_file_form(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("0 1\n1 2\n\n2 3\n")
    g, spec = parse_graph_spec(f"file:{p}")
    assert spec is None
    assert g.n == 4 and g.edges() == [(0, 1), (1, 2), (2, 3)]


def test_unreadable_edge_list_names_path_and_reason_once(tmp_path, capsys):
    p = tmp_path / "missing.txt"
    assert run_cli(["analyze", "--graph", f"file:{p}", "--k", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: at position 5: cannot read {str(p)!r}: {os.strerror(errno.ENOENT)}\n"
    )


def test_spec_errors_carry_positions():
    with pytest.raises(GraphSpecError) as exc:
        parse_graph_spec("path")
    assert exc.value.position == 0
    with pytest.raises(GraphSpecError) as exc:
        parse_graph_spec("path:x")
    assert exc.value.position == 5
    with pytest.raises(GraphSpecError) as exc:
        parse_graph_spec("union:path:2+bogus:3")
    assert exc.value.position == 13
    with pytest.raises(GraphSpecError):
        parse_graph_spec("cycle:2")  # out-of-range family parameter
    with pytest.raises(GraphSpecError):
        parse_graph_spec("biclique:3")  # wrong arity


def test_analyze_human_and_json(capsys):
    assert run_cli(["analyze", "--graph", "path:4", "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert "eulerian: yes" in out and "match: yes" in out

    assert run_cli(["analyze", "--graph", "cycle:4", "--k", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["euler"]["is_eulerian"] is False
    assert payload["expected_eulerian"] is False and payload["match"] is True
    assert "{0,1,2}" in payload["euler"]["odd_degree_nodes"]
    assert payload["reconfig"]["degree_histogram"]["3"] == 4


def test_analyze_k_max_and_circuit(capsys):
    assert run_cli(["analyze", "--graph", "cocktail:4", "--k", "max", "--circuit",
                    "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["euler"]["is_eulerian"] is True
    assert payload["expected_eulerian"] is True
    circuit = payload["euler_circuit"]
    assert circuit[0] == circuit[-1]
    assert len(circuit) == payload["euler"]["edge_count"] + 1


def test_analyze_expected_absent_when_uncharacterized(capsys):
    assert run_cli(["analyze", "--graph", "turan:7,3", "--k", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "expected_eulerian" not in payload and "match" not in payload


def test_analyze_json_is_byte_identical(capsys):
    run_cli(["analyze", "--graph", "path:4", "--k", "3", "--json"])
    first = capsys.readouterr().out
    run_cli(["analyze", "--graph", "path:4", "--k", "3", "--json"])
    assert capsys.readouterr().out == first


# sha256 of the stdout of `analyze --graph cocktail:10 --k max --circuit`,
# with and without --json, recorded from the tuple-set walk with labels
# formatted per step; the circuit and its labels must not change a byte.
CIRCUIT_STDOUT_SHA256 = {
    True: "1a68974deea6ca4872f6486f0c294a73d155482eeb0c5af6540103bdb5ca5463",
    False: "6773003f05d555ddeaff2ff74392005890e9d06c782eedaeaf678e0ffc32768c",
}


@pytest.mark.parametrize("as_json", [True, False])
def test_analyze_circuit_output_is_unchanged(as_json, capsys):
    argv = ["analyze", "--graph", "cocktail:10", "--k", "max", "--circuit"]
    assert run_cli(argv + ["--json"] * as_json) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == CIRCUIT_STDOUT_SHA256[as_json]


# sha256 of the stdout of `export --graph cocktail:6 --format dot` under each
# --labels style, recorded when node labels were still formatted by a
# vertex-set class; formatting the masks directly must not change a byte.
EXPORT_DOT_SHA256 = {
    "set": "304d81cb9ceb3a7d35a7be1a03ffe389d0efc0ce2b75353b9fed0da237ecd852",
    "bits": "ea34ae2265e6fd58e955474ace94971905ec30aaf955df2386314aa3f96d8c9f",
}


@pytest.mark.parametrize("labels", ["set", "bits"])
def test_export_dot_output_is_unchanged(labels, capsys):
    argv = ["export", "--graph", "cocktail:6", "--format", "dot", "--labels", labels]
    assert run_cli(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == EXPORT_DOT_SHA256[labels]


def test_every_public_name_resolves():
    import domrec

    for name in domrec.__all__:
        assert getattr(domrec, name) is not None, name


def test_analyze_dot_output(tmp_path, capsys):
    dot_path = tmp_path / "out.dot"
    assert run_cli(["analyze", "--graph", "path:4", "--k", "3",
                    "--dot", str(dot_path)]) == 0
    capsys.readouterr()
    assert "graph reconfig {" in dot_path.read_text()


def test_scan_csv(capsys):
    assert run_cli(["scan", "--family", "cycle", "--n", "3..7",
                    "--filter", "eulerian"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == ("family,n,k,gamma,nodes,edges,odd_degree_count,"
                        "nontrivial_components,is_eulerian,expected,match")
    rows = [ln.split(",") for ln in lines[1:]]
    # restricted-range Eulerian instances: (C_3, 2) and (C_7, 4)
    assert ["cycle:3", "3", "2", "1", "6", "6", "0", "1", "true", "true", "true"] in rows
    assert ["cycle:7", "7", "4", "3", "42", "56", "0", "1", "true", "true", "true"] in rows


def test_scan_single_k_to_file(tmp_path):
    target = tmp_path / "scan.csv"
    assert run_cli(["scan", "--family", "path", "--n", "3..6", "--k", "3",
                    "--csv", str(target)]) == 0
    lines = target.read_text().strip().split("\n")
    assert len(lines) == 1 + 4  # P_3..P_6 all admit k=3
    assert lines[1].startswith("path:3,3,3,")


def test_scan_biclique_and_corona_families(capsys):
    assert run_cli(["scan", "--family", "biclique", "--n", "1..3", "--k", "all"]) == 0
    out = capsys.readouterr().out
    # comma-bearing family names are CSV-quoted
    assert '"biclique:1,2",' in out and '"biclique:3,3",' in out
    assert run_cli(["scan", "--family", "corona", "--n", "2..3", "--k", "all"]) == 0
    out = capsys.readouterr().out
    assert "corona:path:2," in out


def test_scan_rejects_bad_family_and_range(capsys):
    assert run_cli(["scan", "--family", "nope", "--n", "3..5"]) == 2
    assert run_cli(["scan", "--family", "path", "--n", "3-5"]) == 2


def test_verify_pass_and_exit_codes(capsys):
    assert run_cli(["verify", "--claim", "path_cycle", "--max-n", "8"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS path_cycle")
    assert run_cli(["verify", "--claim", "bogus"]) == 2
    assert run_cli(["verify", "--claim", "dominating_graph_characterization",
                    "--max-n", "9"]) == 2  # enumeration bound


def test_verify_negative_control_exits_one(capsys):
    code = run_cli(["verify", "--claim", "dominating_graph_characterization",
                    "--negative-control", "--max-n", "4"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out and "planted:cocktail:4" in out
    assert run_cli(["verify", "--claim", "path_cycle", "--negative-control"]) == 2


def test_negative_control_plants_at_the_largest_even_order(capsys):
    code = run_cli(["verify", "--claim", "dominating_graph_characterization",
                    "--negative-control", "--max-n", "5"])
    assert code == 1
    assert "planted:cocktail:4" in capsys.readouterr().out
    code = run_cli(["verify", "--claim", "dominating_graph_characterization",
                    "--negative-control", "--max-n", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "--max-n" in captured.err


def test_verify_json_and_jobs(capsys):
    assert run_cli(["verify", "--claim", "parity_odd", "--max-n", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["claim"] == "parity_odd" and payload[0]["passed"] is True


def test_scan_output_identical_across_jobs(capsys):
    assert run_cli(["scan", "--family", "path", "--n", "3..6", "--jobs", "1"]) == 0
    single = capsys.readouterr().out
    assert run_cli(["scan", "--family", "path", "--n", "3..6", "--jobs", "2"]) == 0
    assert capsys.readouterr().out == single


def test_verify_all_is_deterministic_and_reports_known_defect(capsys):
    # at reduced bounds the full catalog runs in seconds; the catalogued
    # 4-cycle bullet fails by design, so 'all' exits 1 deterministically
    def statuses(jobs):
        code = run_cli(["verify", "--claim", "all", "--max-n", "3",
                        "--jobs", str(jobs)])
        out = capsys.readouterr().out
        return code, [ln.split()[:2] for ln in out.splitlines()
                      if ln.startswith(("PASS", "FAIL"))]

    def unclocked_json(jobs):
        code = run_cli(["verify", "--claim", "all", "--max-n", "3",
                        "--jobs", str(jobs), "--json"])
        out = capsys.readouterr().out
        return code, re.sub(r'"elapsed_seconds": [^,\n]+', '"elapsed_seconds": 0', out)

    code1, lines1 = statuses(1)
    code2, lines2 = statuses(2)
    assert code1 == code2 == 1
    assert lines1 == lines2
    assert ["FAIL", "bipartite_well_dominated"] in lines1
    assert sum(1 for s, _ in lines1 if s == "PASS") == 12
    # The whole JSON reports, not only their verdicts, are the same bytes
    # whatever --jobs is, elapsed times aside.
    json_code1, json1 = unclocked_json(1)
    json_code2, json2 = unclocked_json(2)
    assert json_code1 == json_code2 == 1
    assert json1 == json2
    assert len(json.loads(json1)) == 13


def test_export_formats(capsys):
    assert run_cli(["export", "--graph", "path:4", "--format", "g6"]) == 0
    assert capsys.readouterr().out.strip() == "Ch"
    assert run_cli(["export", "--graph", "path:4", "--k", "3", "--format", "dot"]) == 0
    assert "graph reconfig {" in capsys.readouterr().out
    assert run_cli(["export", "--graph", "path:4", "--k", "3", "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("node_id,neighbor_ids")


def test_exit_code_usage_and_capacity(capsys):
    assert run_cli(["analyze", "--graph", "nonsense", "--k", "3"]) == 2
    assert run_cli(["analyze", "--graph", "path:4"]) == 2  # missing --k
    assert run_cli(["analyze", "--graph", "path:7", "--k", "1"]) == 2  # k < gamma
    assert run_cli(["analyze", "--graph", "path:4", "--k", "-1"]) == 2
    assert run_cli(["analyze", "--graph", "path:4", "--k", "9"]) == 2  # k > n
    assert run_cli(["analyze", "--graph", "biclique:13,14", "--k", "3"]) == 3
    assert run_cli(["analyze", "--graph", "g6:" + chr(126) + "???", "--k", "2"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("argv, error, code", [
    (["analyze", "--graph", "nonsense", "--k", "3"], GraphSpecError, 2),
    (["analyze", "--graph", "g6:A", "--k", "1"], MalformedGraph6, 2),
    (["analyze", "--graph", "g6:A_", "--k", "0"], BoundBelowGamma, 2),
    (["verify", "--claim", "dominating_graph_characterization", "--max-n", "9"],
     BoundExceeded, 2),
    (["verify", "--claim", "bogus"], ClaimUnknown, 2),
    (["analyze", "--graph", "biclique:13,14", "--k", "3"], CapacityExceeded, 3),
    (["analyze", "--graph", "complete:23", "--k", "max"], ReconfigTooLarge, 3),
    (["analyze", "--graph", "path:4", "--k", "3", "--dot", "/nonexistent/x.dot"],
     DomrecError, 2),
    (["scan", "--family", "path", "--n", "3..4", "--csv", "/nonexistent/x.csv"],
     DomrecError, 2),
])
def test_error_class_maps_to_exit_code(argv, error, code, capsys):
    args = cli._build_parser().parse_args(argv)
    with pytest.raises(error) as excinfo:
        args.func(args)
    assert type(excinfo.value) is error
    assert run_cli(argv) == code
    captured = capsys.readouterr()
    assert captured.out == "" and "error: " in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, line", [
    (["analyze", "--graph", "path:4", "--k", "x"],
     "error: --k must be an integer or 'max', got 'x'"),
    (["analyze", "--graph", "path:4", "--k", "9"], "error: --k must be in [0, 4], got 9"),
    (["scan", "--family", "nope", "--n", "3..5"],
     "error: --family must be one of path, cycle, complete, biclique, cocktail, "
     "complete_k, corona, got 'nope'"),
    (["scan", "--family", "path", "--n", "3-8"], "error: --n must look like 3..8, got '3-8'"),
    (["verify", "--claim", "path_cycle", "--negative-control"],
     "error: --negative-control applies to --claim dominating_graph_characterization"),
    (["verify", "--claim", "dominating_graph_characterization", "--negative-control",
      "--max-n", "3"], "error: --negative-control needs --max-n >= 4, got 3"),
], ids=["k-text", "k-range", "family", "n-range", "control-claim", "control-max-n"])
def test_flag_errors_carry_no_spec_position(argv, line, capsys):
    args = cli._build_parser().parse_args(argv)
    with pytest.raises(DomrecError) as exc:
        args.func(args)
    assert not isinstance(exc.value, GraphSpecError)
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line + "\n"


def test_export_bits_labels_of_the_empty_seed(capsys):
    argv = ["export", "--graph", "g6:?", "--format", "dot", "--labels", "bits"]
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == 'graph reconfig {\n  0 [label=""];\n}\n'


def test_malformed_spec_no_partial_output(capsys):
    assert run_cli(["analyze", "--graph", "path:x", "--k", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in captured.err


@pytest.mark.parametrize("argv", [
    ["verify", "--claim", "parity_odd", "--max-n", "0"],
    ["verify", "--claim", "parity_odd", "--max-n", "-1"],
    ["verify", "--claim", "parity_odd", "--jobs", "0"],
    ["verify", "--claim", "dominating_graph_characterization", "--negative-control",
     "--max-n", "0"],
    ["scan", "--family", "path", "--n", "3..4", "--jobs", "0"],
])
def test_nonpositive_counts_are_usage_errors(argv, capsys):
    assert run_cli(argv) == 2
    assert capsys.readouterr().out == ""


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the requested size and maps
    serially in this process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


def test_pool_is_clamped_to_task_count(monkeypatch, capsys):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    assert run_cli(["verify", "--claim", "all", "--max-n", "2", "--jobs", "64"]) == 1
    assert run_cli(["scan", "--family", "path", "--n", "3..4", "--jobs", "64"]) == 0
    assert run_cli(["verify", "--claim", "parity_odd", "--max-n", "2", "--jobs", "64"]) == 0
    capsys.readouterr()
    # 13 claims, 6 scan rows (P_3 and P_4 at k = gamma..n), and no pool for one task
    assert _RecordingPool.sizes == [13, 6]


def test_file_vertex_far_above_cap_is_capacity_error(tmp_path, capsys):
    p = tmp_path / "edges.txt"
    p.write_text("0 100000000000\n")
    assert run_cli(["analyze", "--graph", f"file:{p}", "--k", "1"]) == 3
    assert "capacity error" in capsys.readouterr().err


def test_unexpected_exception_exits_70_with_its_traceback():
    """An exception escaping a command is an internal error: the entry point
    exits 70 with the traceback on stderr, never 1, which means a claim
    failed."""
    script = (
        "import sys\n"
        "from domrec import cli\n"
        "def broken(*args, **kwargs):\n"
        "    raise ValueError('internal fault')\n"
        "cli.build_reconfig = broken\n"
        "sys.argv = ['domrec', 'analyze', '--graph', 'path:4', '--k', '3']\n"
        "cli.main()\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 70
    assert proc.stdout == ""
    assert proc.stderr.startswith("Traceback (most recent call last):")
    assert "in _cmd_analyze" in proc.stderr
    assert proc.stderr.endswith("ValueError: internal fault\n")


def test_library_value_error_is_not_a_usage_error(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "build_reconfig", broken)
    with pytest.raises(ValueError, match="internal fault"):
        run_cli(["analyze", "--graph", "path:4", "--k", "3"])


def _counting(monkeypatch, name):
    calls = []
    original = getattr(cli, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, counted)
    return calls


def test_analyze_circuit_reuses_the_report(monkeypatch, capsys):
    reports = _counting(monkeypatch, "eulerian_report")
    assert run_cli(["analyze", "--graph", "cocktail:4", "--k", "max", "--circuit"]) == 0
    assert "euler circuit: " in capsys.readouterr().out
    assert len(reports) == 1


def test_scan_computes_one_profile_per_instance(monkeypatch, capsys):
    profiles = _counting(monkeypatch, "domination_profile")
    assert run_cli(["scan", "--family", "path", "--n", "3..6"]) == 0
    capsys.readouterr()
    assert len(profiles) == 4


def _counting_tables(monkeypatch):
    """Count dominating_table calls through every domrec module binding it."""
    calls = []
    original = domination.dominating_table

    def counted(g):
        calls.append(g)
        return original(g)

    for name, module in list(sys.modules.items()):
        if name.startswith("domrec") and getattr(module, "dominating_table", None) is original:
            monkeypatch.setattr(module, "dominating_table", counted)
    return calls


@pytest.mark.parametrize("extra", [[], ["--json"], ["--circuit"]])
def test_analyze_computes_one_domination_table(monkeypatch, capsys, extra):
    tables = _counting_tables(monkeypatch)
    assert run_cli(["analyze", "--graph", "cocktail:6", "--k", "max"] + extra) == 0
    capsys.readouterr()
    assert len(tables) == 1


def test_scan_computes_one_domination_table_per_spec(monkeypatch, capsys):
    tables = _counting_tables(monkeypatch)
    assert run_cli(["scan", "--family", "cocktail", "--n", "4..8"]) == 0
    assert capsys.readouterr().out.count("\ncocktail:") == 3 + 5 + 7
    assert [g.name for g in tables] == ["cocktail:4", "cocktail:6", "cocktail:8"]


def test_scan_past_the_cap_exits_before_any_profile(monkeypatch, capsys):
    profiles = _counting(monkeypatch, "domination_profile")
    assert run_cli(["scan", "--family", "path", "--n", "26..27"]) == 3
    assert "capacity error" in capsys.readouterr().err
    assert profiles == []


def test_scan_huge_range_stops_at_the_cap(capsys):
    start = time.perf_counter()
    assert run_cli(["scan", "--family", "biclique", "--n", "1..1000000000000"]) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == ""
