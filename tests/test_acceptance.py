"""Acceptance suite: one test per catalogued criterion, at full stated bounds.

Each test prints a single pass/fail line (run pytest with -s to see them all)
and enforces the criterion's runtime budget.  Run just this module with:

    pytest -s tests/test_acceptance.py
"""

import functools
import time
from collections import Counter

from conftest import (
    listed_adjacency,
    naive_reconfig_edges,
    node_degree,
    parity_bipartition_valid,
)
from domrec import (
    ClaimId,
    FamilySpec,
    build_reconfig,
    euler_circuit,
    eulerian_report,
    is_cocktail_party,
    make_family,
    parse_graph6,
    verify_claim,
    verify_mixed_parity_lemma,
)
from domrec.cli import run_cli
from domrec.domination import domination_profile
from domrec.theorems import negative_control_characterization


def _ceil_div(a, b):
    return -(-a // b)


def criterion(num, name):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {num:02d}] FAIL {name}")
                raise
            print(f"\n[criterion {num:02d}] PASS {name} "
                  f"({time.perf_counter() - start:.1f}s)")
        return inner
    return wrap


@criterion(1, "dominating-set counts are odd for every labeled graph, n <= 6")
def test_criterion_01_parity_odd():
    report = verify_claim(ClaimId.PARITY_ODD, n_max=6)
    assert report.passed and not report.counterexamples
    assert report.instances_checked == sum(1 << (n * (n - 1) // 2) for n in range(1, 7))
    assert report.instances_checked == 33867
    assert report.elapsed < 30


@criterion(2, "unrestricted dominating graph Eulerian iff cocktail party, n <= 7")
def test_criterion_02_characterization():
    report = verify_claim(ClaimId.DOMINATING_GRAPH_CHARACTERIZATION, n_min=2, n_max=7)
    assert report.passed and not report.counterexamples
    assert report.instances_checked == 1 + 4 + 38 + 728 + 26704 + 1866256
    seeds = report.details["eulerian_seeds"]
    for n in (2, 3, 5, 7):
        assert seeds[str(n)] == []
    # perfect-matching counts of K_4 and K_6: every Eulerian seed is one
    # cocktail labeling, and all labelings appear
    assert len(seeds["4"]) == 3
    assert len(seeds["6"]) == 15
    for record in seeds["4"] + seeds["6"]:
        assert is_cocktail_party(parse_graph6(record))
    assert report.elapsed < 300


@criterion(3, "paths and cycles, 3 <= n <= 15: Eulerian exactly at "
              "(P4,3), (C3,2), (C7,4)")
def test_criterion_03_path_cycle():
    report = verify_claim(ClaimId.PATH_CYCLE, n_max=15)
    assert report.passed and not report.counterexamples
    assert report.details["eulerian_instances"] == [
        ["cycle:3", 2], ["cycle:7", 4], ["path:4", 3]
    ]
    expected_instances = 2 * sum(
        max(0, n - 1 - _ceil_div(n, 3)) for n in range(3, 16)
    )
    assert report.instances_checked == expected_instances
    assert report.elapsed < 120


@criterion(4, "bicliques, m <= n <= 8: Eulerian iff (m=1, n even, k odd) or "
              "(m >= 3, m = n mod 2, k = 3)")
def test_criterion_04_complete_bipartite():
    report = verify_claim(ClaimId.COMPLETE_BIPARTITE, n_max=8)
    assert report.passed and not report.counterexamples
    expected = sorted(
        [f"biclique:{m},{n}", k]
        for m in range(1, 9)
        for n in range(m, 9)
        for k in range((1 if m == 1 else 2) + 1, m + n)
        if (m == 1 and n % 2 == 0 and k % 2 == 1)
        or (m >= 3 and (m - n) % 2 == 0 and k == 3)
    )
    assert report.details["eulerian_instances"] == expected
    assert report.elapsed < 120


@criterion(5, "cocktail party graphs, even n <= 12: Eulerian iff k even "
              "(2 < k < n), plus k = n always Eulerian")
def test_criterion_05_cocktail():
    report = verify_claim(ClaimId.COCKTAIL_K, n_max=12)
    assert report.passed and not report.counterexamples
    expected = sorted(
        [f"cocktail:{n}", k]
        for n in range(4, 13, 2)
        for k in range(3, n + 1)
        if k % 2 == 0
    )
    assert report.details["eulerian_instances"] == expected
    assert report.elapsed < 60


@criterion(6, "complete graphs, n <= 12: Eulerian iff n odd and k = 2")
def test_criterion_06_complete():
    report = verify_claim(ClaimId.COMPLETE_K, n_max=12)
    assert report.passed and not report.counterexamples
    assert report.details["eulerian_instances"] == sorted(
        [f"complete:{n}", 2] for n in (3, 5, 7, 9, 11)
    )
    assert report.instances_checked == sum(n - 2 for n in range(2, 13))
    assert report.elapsed < 30


@criterion(7, "coronas of every labeled graph on 2..5 vertices: Eulerian iff "
              "inner order even and k = order + 1")
def test_criterion_07_corona():
    report = verify_claim(ClaimId.CORONA, inner_max=5)
    assert report.passed and not report.counterexamples
    assert report.instances_checked == sum(
        (1 << (n * (n - 1) // 2)) * (n - 1) for n in range(2, 6)
    )
    assert report.elapsed < 300


@criterion(8, "disjoint unions: restriction bijection onto the Cartesian "
              "product, and Eulerian iff every factor is")
def test_criterion_08_product_decomposition():
    report = verify_claim(ClaimId.PRODUCT_DECOMPOSITION, samples=100, max_part=5)
    assert report.passed and not report.counterexamples
    assert report.instances_checked == 100


@criterion(9, "connected seeds meeting the threshold conditions have both "
              "degree parities in their dominating graphs, n <= 6")
def test_criterion_09_mixed_parity():
    report = verify_mixed_parity_lemma(n_max=6)
    assert report.passed and not report.counterexamples
    assert report.details["graphs_scanned"] == 1 + 4 + 38 + 728 + 26704
    assert report.instances_checked == 27452


def _structural_corpus():
    """(seed, k) instances drawn from the families swept in criteria 1-9."""
    corpus = []
    for n in range(2, 11):
        corpus.append(make_family(FamilySpec.path(n)))
    for n in range(3, 11):
        corpus.append(make_family(FamilySpec.cycle(n)))
    for m in range(1, 6):
        for n in range(m, 6):
            corpus.append(make_family(FamilySpec.complete_bipartite(m, n)))
    for n in (4, 6, 8):
        corpus.append(make_family(FamilySpec.cocktail(n)))
    for n in range(2, 9):
        corpus.append(make_family(FamilySpec.complete(n)))
    for spec in (FamilySpec.path(2), FamilySpec.path(3), FamilySpec.path(4),
                 FamilySpec.cycle(3), FamilySpec.cycle(4)):
        corpus.append(make_family(FamilySpec.corona(spec)))
    for g in corpus:
        gamma = domination_profile(g).gamma
        for k in range(gamma, g.n + 1):
            yield g, k


@criterion(10, "structural invariants on every materialized instance: parity "
               "bipartition, degree oracle, all-pairs edge oracle, k=n facts")
def test_criterion_10_structural_invariants():
    instances = 0
    for g, k in _structural_corpus():
        r = build_reconfig(g, k)
        instances += 1
        assert parity_bipartition_valid(r)
        adjacency = listed_adjacency(r)
        for i, s in enumerate(r.nodes):
            assert node_degree(g, s, k) == len(adjacency[i])
        assert g.n <= 10
        masks = r.nodes
        got = {(i, j) for i, nbrs in enumerate(adjacency) for j in nbrs if i < j}
        assert got == naive_reconfig_edges(masks)
        if k == g.n:
            rep = eulerian_report(r)
            assert rep.is_connected
            assert rep.node_count % 2 == 1
            assert any(len(adjacency[i]) % 2 == 0 for i in range(r.node_count))
    assert instances > 200
    print(f"\n  checked {instances} materialized instances", end="")


@criterion(11, "constructive witnesses: Euler circuits replay on D_3(P_4), "
               "D_2(C_3), D_4(C_7)")
def test_criterion_11_witnesses():
    cases = [(FamilySpec.path(4), 3, 8), (FamilySpec.cycle(3), 2, 6),
             (FamilySpec.cycle(7), 4, 42)]
    for spec, k, node_count in cases:
        r = build_reconfig(make_family(spec), k)
        assert r.node_count == node_count
        index = {s: i for i, s in enumerate(r.nodes)}
        walk = [index[s] for s in euler_circuit(r)]
        assert walk[0] == walk[-1]
        assert len(walk) == r.edge_count + 1
        adjacency = listed_adjacency(r)
        used = Counter()
        for a, b in zip(walk, walk[1:]):
            assert b in adjacency[a]
            used[(min(a, b), max(a, b))] += 1
        assert len(used) == r.edge_count
        assert all(c == 1 for c in used.values())


@criterion(12, "negative control: a planted cocktail mutation is flagged as "
               "exactly one counterexample, exit code 1")
def test_criterion_12_negative_control():
    report = negative_control_characterization(6)
    assert not report.passed
    assert report.details["counterexample_count"] == 1
    ce = report.counterexamples[0]
    assert ce["seed"].startswith("planted:cocktail:6")
    assert ce["expected"] is True and ce["computed"] is False
    code = run_cli(["verify", "--claim", "dominating_graph_characterization",
                    "--negative-control"])
    assert code == 1
