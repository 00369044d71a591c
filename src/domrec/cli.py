"""Command-line front end.

Subcommands:
    analyze --graph <spec> --k <int|max> [--json] [--dot PATH] [--circuit]
    scan    --family <name> --n <a>..<b> [--k all|<int>] [--filter eulerian]
            [--csv PATH] [--jobs N]
    verify  --claim <id|all> [--max-n N] [--jobs N] [--json] [--negative-control]
    export  --graph <spec> [--k <int|max>] --format <dot|csv|g6>

Graph specs (parsed by domrec.graphs.parse_graph_spec): path:7, cycle:7,
complete:5, biclique:3,4, star:5, cocktail:6, turan:6,3, corona:path:3,
union:path:2+cycle:3, union:path:1+(union:path:1+path:1), g6:<record>,
file:<path>.  Seeds are named by their canonical spec.  scan sweeps
FamilySpecs and skips the sizes a family has no member at.

Exit codes: 0 all checks passed / analysis done; 1 a verified claim failed;
2 usage or parse error; 3 capacity exceeded (a seed past 26 vertices, or a
listing of D_k past 2^22 nodes: --circuit, --dot, export dot/csv; reports
list no node); 70 internal error (an unexpected exception, its traceback on
stderr); 141 stdout closed early (a broken pipe, as when piped into head).

--jobs 1, the default, never loads concurrent.futures: no pool starts.

Outputs whose size grows with the edge count (analyze's Euler circuit, DOT
and CSV exports) are written in pieces as they are formatted, never held as
one string.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from collections.abc import Iterable, Sequence
from functools import cache
from itertools import islice
from operator import itemgetter

from .domination import (DominationProfile, dominating_table, domination_profile, format_set,
                          format_sets, subset_labels)
from .errors import (
    CapacityExceeded,
    ClaimUnknown,
    DomrecError,
    InvalidFamilyParameters,
    UncharacterizedInstance,
)
from .graphs import FamilySpec, SeedGraph, make_family, parse_graph_spec, to_graph6
from .reconfig import (
    EulerReport,
    build_reconfig,
    euler_circuit,
    eulerian_report,
    reconfig_to_csv,
    reconfig_to_dot,
)
from .theorems import (
    ClaimId,
    expected_eulerian,
    expected_eulerian_unrestricted,
    max_n_override,
    negative_control_characterization,
    verify_claim,
)

def _k_value(text: str, n: int) -> int:
    """--k as an integer, with 'max' standing for n."""
    if text == "max":
        return n
    try:
        return int(text)
    except ValueError:
        raise DomrecError(f"--k must be an integer or 'max', got {text!r}") from None


def _parse_k(text: str, n: int) -> int:
    """--k as a cardinality bound in [0, n]."""
    k = _k_value(text, n)
    if not 0 <= k <= n:
        raise DomrecError(f"--k must be in [0, {n}], got {k}")
    return k


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _expected_or_none(spec: FamilySpec | None, g: SeedGraph, k: int) -> bool | None:
    if k == g.n:
        return expected_eulerian_unrestricted(g)
    if spec is None:
        return None
    try:
        return expected_eulerian(spec, k)
    except UncharacterizedInstance:
        return None


#: Pieces (circuit steps, DOT or CSV lines) joined per write: one write
#: stays well under a megabyte however large the output.
_PIECES_PER_WRITE = 4096


def _write_joined(out, pieces: Iterable[str]):
    """Write "".join(pieces) to out, _PIECES_PER_WRITE pieces at a time.
    stdout writes through to its buffer, so one write per piece would cost
    more than the joins."""
    it = iter(pieces)
    for batch in iter(lambda: list(islice(it, _PIECES_PER_WRITE)), []):
        out.write("".join(batch))


def _gather(seq, keys) -> tuple:
    """seq[k] for each key k, by itemgetter: a tuple even for one key."""
    return itemgetter(*keys)(seq) if len(keys) > 1 else (seq[keys[0]],)


def _write_file(path: str, pieces: Iterable[str]):
    """Write the pieces to path as they come; a path that cannot be written
    is a usage error."""
    try:
        with open(path, "w", newline="") as fh:
            _write_joined(fh, pieces)
    except OSError as exc:
        raise DomrecError(f"cannot write {path!r}: {exc.strerror}") from None


def analysis_report(
    g: SeedGraph, spec: FamilySpec | None, k: int, rep: EulerReport,
    profile: DominationProfile,
) -> dict:
    """The analyze report of g at bound k, read off rep, the EulerReport of
    D_k(g), and profile, g's domination_profile."""
    expected = _expected_or_none(spec, g, k)
    out = {
        "seed": {
            "name": g.name,
            "n": g.n,
            "edges": g.edge_count(),
            "gamma": profile.gamma,
            "upper_gamma": profile.upper_gamma,
            "well_dominated": profile.well_dominated,
            "universal_threshold": profile.universal_threshold,
        },
        "k": k,
        "reconfig": {
            "node_count": rep.node_count,
            "edge_count": rep.edge_count,
            "degree_histogram": {str(d): c for d, c in rep.degree_histogram},
        },
        "euler": {
            "node_count": rep.node_count,
            "edge_count": rep.edge_count,
            "odd_degree_count": rep.odd_degree_count,
            "odd_degree_nodes": [format_set(s) for s in rep.odd_degree_nodes],
            "isolated_count": rep.isolated_count,
            "nontrivial_component_count": rep.nontrivial_component_count,
            "is_connected": rep.is_connected,
            "is_eulerian": rep.is_eulerian,
        },
    }
    if expected is not None:
        out["expected_eulerian"] = expected
        out["match"] = expected == rep.is_eulerian
    return out


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _analysis_lines(report: dict) -> list[str]:
    """The text report's lines, the Euler circuit aside."""
    seed = report["seed"]
    rc = report["reconfig"]
    eu = report["euler"]
    lines = [
        f"seed {seed['name']}: n={seed['n']}, edges={seed['edges']}, "
        f"gamma={seed['gamma']}, Gamma={seed['upper_gamma']}, "
        f"well-dominated={_yesno(seed['well_dominated'])}, "
        f"universal-threshold={seed['universal_threshold']}",
        f"reconfig k={report['k']}: {rc['node_count']} nodes, {rc['edge_count']} edges",
        "degree histogram: "
        + ", ".join(f"{d}:{c}" for d, c in rc["degree_histogram"].items()),
        f"eulerian: {_yesno(eu['is_eulerian'])} "
        f"(odd-degree nodes: {eu['odd_degree_count']}, "
        f"non-trivial components: {eu['nontrivial_component_count']}, "
        f"isolated: {eu['isolated_count']}, connected: {_yesno(eu['is_connected'])})",
    ]
    if eu["odd_degree_nodes"]:
        lines.append("odd-degree witnesses: " + ", ".join(eu["odd_degree_nodes"]))
    if "expected_eulerian" in report:
        lines.append(
            f"expected: {_yesno(report['expected_eulerian'])}, "
            f"match: {_yesno(report['match'])}"
        )
    return lines


def _write_analysis(out, report: dict, as_json: bool, walk: Sequence[int] | None, labels):
    """Write the analyze report to out, with the Euler circuit when walk is
    not None (empty when there is none): text lines, or the report as
    json.dumps(..., sort_keys=True, indent=2) prints it with the circuit as
    its "euler_circuit" array of node labels.  walk holds node masks and
    labels[s] node s's bare label (the separators indent and quote it in
    JSON), a list over every subset or a dict over the nodes.  Each batch of
    _PIECES_PER_WRITE steps is one write, its separator before it another."""
    if not as_json:
        out.write("\n".join(_analysis_lines(report)) + "\n")
        if walk is None:
            return
        before, sep, after = "euler circuit: ", " -> ", "\n" if walk else "none\n"
    else:
        payload = dict(report)
        if walk is not None:
            payload["euler_circuit"] = []
        text = json.dumps(payload, sort_keys=True, indent=2)
        if not walk:
            out.write(text + "\n")
            return
        # The key is unique, as JSON escapes every quote in a string; labels hold none.
        head, _, tail = text.partition('"euler_circuit": []')
        before, sep, after = head + '"euler_circuit": [\n    "', '",\n    "', '"\n  ]' + tail + "\n"
    out.write(before)
    for start in range(0, len(walk), _PIECES_PER_WRITE):
        if start:
            out.write(sep)
        out.write(sep.join(_gather(labels, walk[start:start + _PIECES_PER_WRITE])))
    out.write(after)


def _cmd_analyze(args) -> int:
    """The report of D_k(G), with --circuit its Euler circuit: the walk's
    masks keyed to bare labels, quoted by _write_analysis's separators, of
    every subset on a dense D_k, with no node listed, else of each node."""
    g, spec = parse_graph_spec(args.graph)
    k = _parse_k(args.k, g.n)
    table = dominating_table(g)
    r = build_reconfig(g, k, table=table)
    if args.dot:
        # Listed first, so that a D_k past the node cap exits before any report.
        _write_file(args.dot, reconfig_to_dot(r))
    rep = eulerian_report(r)
    report = analysis_report(g, spec, k, rep, domination_profile(g, table))
    walk, labels = None, []
    if args.circuit:
        walk = []
        if rep.is_eulerian and rep.edge_count > 0:
            walk = euler_circuit(r)
            # tracemalloc, n = 10..18: a label takes 60-72 B; a list holds one and
            # 8 B a subset, a dict one and 60-85 B a node (entry, int key, r.nodes).
            labels = (dict(zip(r.nodes, format_sets(g.n, r.nodes)))
                      if (8 + 70) << g.n > (68 + 70) * r.node_count else subset_labels(g.n))
    del r  # the walk and the labels are all the output needs of the graph
    # Looked up at call time: callers may redirect sys.stdout.
    _write_analysis(sys.stdout, report, args.json, walk, labels)
    return 0


#: Each scan family's specs at size n; sizes with no member are skipped.
_SCAN_FAMILIES = {
    "path": lambda n: [FamilySpec.path(n)],
    "cycle": lambda n: [FamilySpec.cycle(n)],
    "complete": lambda n: [FamilySpec.complete(n)],
    "biclique": lambda n: [FamilySpec.complete_bipartite(m, n) for m in range(1, n + 1)],
    "cocktail": lambda n: [FamilySpec.cocktail(n)],
    "complete_k": lambda n: [FamilySpec.complete(n)],
    "corona": lambda n: [FamilySpec.corona(FamilySpec.path(n))],
}

_CSV_COLUMNS = (
    "family", "n", "k", "gamma", "nodes", "edges",
    "odd_degree_count", "nontrivial_components", "is_eulerian", "expected", "match",
)


def _scan_worker(task: tuple[FamilySpec, int, int, DominationProfile]) -> dict:
    """The analyze report of one scan instance (spec, k), given the seed's
    dominating_table and domination_profile."""
    spec, k, table, profile = task
    g = make_family(spec)
    rep = eulerian_report(build_reconfig(g, k, table=table))
    return analysis_report(g, spec, k, rep, profile)


def _scan_cells(report: dict) -> list:
    """A scan CSV row, in _CSV_COLUMNS order, read off an analyze report:
    booleans as true/false, a missing expectation as an empty cell."""
    seed, eu = report["seed"], report["euler"]
    cells = (
        seed["name"], seed["n"], report["k"], seed["gamma"],
        eu["node_count"], eu["edge_count"], eu["odd_degree_count"],
        eu["nontrivial_component_count"], eu["is_eulerian"],
        report.get("expected_eulerian"), report.get("match"),
    )
    return ["" if c is None else (str(c).lower() if isinstance(c, bool) else c)
            for c in cells]


def _cmd_scan(args) -> int:
    if args.family not in _SCAN_FAMILIES:
        raise DomrecError(
            f"--family must be one of {', '.join(_SCAN_FAMILIES)}, got {args.family!r}"
        )
    try:
        lo_text, _, hi_text = args.n.partition("..")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise DomrecError(f"--n must look like 3..8, got {args.n!r}") from None
    # --k is read and every seed built before any profile, so a bad --k or a
    # size past the vertex cap raises at once.  No family has members at n < 0.
    single = None if args.k in ("all", "max") else _k_value(args.k, 0)
    if single is not None and single < 0:
        raise DomrecError(f"--k must be non-negative, got {single}")
    seeds = []
    for n in range(max(lo, 0), hi + 1):
        for spec in _SCAN_FAMILIES[args.family](n):
            try:
                seeds.append((spec, make_family(spec)))
            except InvalidFamilyParameters:
                continue
    if not seeds:
        raise DomrecError(f"--n must hold a {args.family} seed, got {args.n!r}")
    tasks: list[tuple[FamilySpec, int, int, DominationProfile]] = []
    for spec, g in seeds:
        table = dominating_table(g)
        profile = domination_profile(g, table)
        ks = range(profile.gamma, g.n + 1)
        if args.k != "all":
            k = g.n if single is None else single  # None: 'max', the seed's n
            ks = [k] if k in ks else []
        tasks.extend((spec, k, table, profile) for k in ks)
    if not tasks:  # 'all' and 'max' fit every seed, since gamma <= n
        raise DomrecError(f"--k must be in [gamma, n] for some seed in the range, got {single}")
    reports = _map_tasks(_scan_worker, tasks, args.jobs)
    if args.filter == "eulerian":
        reports = [report for report in reports if report["euler"]["is_eulerian"]]
    import csv
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    writer.writerows(map(_scan_cells, reports))
    text = buf.getvalue()
    if args.csv:
        _write_file(args.csv, [text])
    else:
        sys.stdout.write(text)
    return 0


def _map_tasks(worker, tasks: list, jobs: int) -> list:
    """worker over tasks in order, in a pool of at most one process per task
    when jobs > 1 (a fork pool starts all its workers up front).  The pool's
    module is imported only when a pool starts."""
    workers = min(jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, tasks))
    return [worker(task) for task in tasks]


def _verify_worker(task: tuple[str, dict]):
    claim, bounds = task
    return verify_claim(claim, **bounds)


def _cmd_verify(args) -> int:
    if args.negative_control:
        if args.claim != ClaimId.DOMINATING_GRAPH_CHARACTERIZATION.value:
            raise DomrecError(
                "--negative-control applies to --claim dominating_graph_characterization"
            )
        n = min(args.max_n, 6) if args.max_n is not None else 6
        n -= n % 2
        if n < 4:
            raise DomrecError(f"--negative-control needs --max-n >= 4, got {args.max_n}")
        reports = [negative_control_characterization(n)]
    else:
        if args.claim == "all":
            claims = list(ClaimId)
        else:
            try:
                claims = [ClaimId(args.claim)]
            except ValueError:
                raise ClaimUnknown(f"unknown claim {args.claim!r}") from None
        tasks = [
            (c.value, max_n_override(c, args.max_n) if args.max_n is not None else {})
            for c in claims
        ]
        reports = _map_tasks(_verify_worker, tasks, args.jobs)
    if args.json:
        print(json.dumps([r.to_json_dict() for r in reports], sort_keys=True, indent=2))
    else:
        for rep in reports:
            status = "PASS" if rep.passed else "FAIL"
            print(
                f"{status} {rep.claim} "
                f"(instances={rep.instances_checked}, elapsed={rep.elapsed:.2f}s)"
            )
            for ce in rep.counterexamples[:3]:
                print(
                    f"  counterexample: seed={ce['seed']} k={ce['k']} "
                    f"expected={ce['expected']} computed={ce['computed']}"
                )
            extra = rep.details.get("counterexample_count", 0) - min(len(rep.counterexamples), 3)
            if extra > 0:
                print(f"  ... and {extra} more")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_export(args) -> int:
    g, _ = parse_graph_spec(args.graph)
    if args.format == "g6":
        print(to_graph6(g))
        return 0
    k = _parse_k(args.k, g.n)
    r = build_reconfig(g, k)
    if args.format == "dot":
        _write_joined(sys.stdout, reconfig_to_dot(r, label_style=args.labels))
    else:
        _write_joined(sys.stdout, reconfig_to_csv(r))
    return 0


@cache  # built once per process: parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domrec",
        description="Analyze k-dominating reconfiguration graphs and verify the claim catalog.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze one (graph, k) instance")
    p.add_argument("--graph", required=True, help="graph spec, e.g. path:4 or g6:Cr")
    p.add_argument("--k", required=True, help="cardinality bound, an integer or 'max'")
    p.add_argument("--json", action="store_true", help="JSON output")
    p.add_argument("--dot", metavar="PATH", help="also write the reconfiguration graph as DOT")
    p.add_argument("--circuit", action="store_true", help="append an Euler circuit when one exists")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("scan", help="sweep a family, one CSV row per (instance, k)")
    p.add_argument("--family", required=True, help="|".join(_SCAN_FAMILIES))
    p.add_argument("--n", required=True, help="inclusive range, e.g. 3..10")
    p.add_argument("--k", default="all", help="'all' (default) or a single integer")
    p.add_argument("--filter", choices=["eulerian"], help="keep only Eulerian rows")
    p.add_argument("--csv", metavar="PATH", help="write CSV here instead of stdout")
    p.add_argument("--jobs", type=_positive_int, default=1, help="worker processes, >= 1")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("verify", help="verify catalogued claims")
    p.add_argument("--claim", required=True, help="claim id or 'all'")
    p.add_argument("--max-n", type=_positive_int, default=None, dest="max_n",
                   help="override the claim's primary size bound, >= 1")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes across claims, >= 1")
    p.add_argument("--json", action="store_true", help="JSON reports")
    p.add_argument("--negative-control", action="store_true",
                   help="plant a mutated cocktail seed and require the harness to flag it")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("export", help="export a reconfiguration graph or seed")
    p.add_argument("--graph", required=True, help="graph spec")
    p.add_argument("--k", default="max", help="cardinality bound (ignored for g6)")
    p.add_argument("--format", required=True, choices=["dot", "csv", "g6"])
    p.add_argument("--labels", choices=["set", "bits"], default="set",
                   help="DOT node labels as '{0,2}' or bitstrings")
    p.set_defaults(func=_cmd_export)
    return parser


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CapacityExceeded as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except DomrecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    """Entry point: run_cli's exit code, 141 when stdout is closed before
    the output is written (no traceback), or 70 (EX_SOFTWARE) with the
    traceback on stderr when an unexpected exception escapes, so a crash is
    never read as exit 1, a failed claim."""
    try:
        code = run_cli()
        # Flush inside the try, so a reader gone at the last piece is seen here.
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit; point it at devnull so that
        # flush cannot fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(141)
    except Exception:
        import traceback
        traceback.print_exc()
        sys.exit(70)
    sys.exit(code)


if __name__ == "__main__":
    main()
