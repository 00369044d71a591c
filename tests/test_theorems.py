"""Claim catalog: expected verdicts, staged brute force, claim runners."""

import pytest
from hypothesis import given, settings

from conftest import seed_graphs
from domrec import (
    ClaimId,
    FamilySpec,
    build_reconfig,
    domination_profile,
    eulerian_report,
    expected_eulerian,
    make_family,
    verify_claim,
    verify_mixed_parity_lemma,
    verify_product_decomposition,
)
from domrec.errors import BoundBelowGamma, BoundExceeded, ClaimUnknown, UncharacterizedInstance
from domrec.graphs import enumerate_labeled_graphs
from domrec.theorems import (
    computed_eulerian,
    expected_eulerian_unrestricted,
    negative_control_characterization,
    odd_degree_nodes,
)
from domrec import reconfig, theorems
from domrec.domination import dominating_table


# --- expected verdicts -------------------------------------------------------


@pytest.mark.parametrize(
    "spec,k,verdict",
    [
        (FamilySpec.path(4), 3, True),
        (FamilySpec.path(6), 4, False),
        (FamilySpec.cycle(3), 2, True),
        (FamilySpec.cycle(7), 4, True),
        (FamilySpec.cycle(7), 5, False),
        (FamilySpec.complete_bipartite(1, 6), 3, True),
        (FamilySpec.complete_bipartite(1, 6), 4, False),
        (FamilySpec.complete_bipartite(3, 5), 3, True),
        (FamilySpec.complete_bipartite(3, 4), 3, False),
        (FamilySpec.complete_bipartite(2, 5), 4, False),
        (FamilySpec.cocktail(8), 5, False),
        (FamilySpec.cocktail(8), 6, True),
        (FamilySpec.complete(5), 2, True),
        (FamilySpec.complete(6), 2, False),
        (FamilySpec.complete(7), 3, False),
        (FamilySpec.corona(FamilySpec.path(4)), 5, True),
        (FamilySpec.corona(FamilySpec.path(4)), 6, False),
        (FamilySpec.corona(FamilySpec.path(3)), 4, False),
        (FamilySpec.star(6), 3, True),  # star folds to biclique 1,6
        (FamilySpec.turan(8, 4), 6, True),  # balanced-pair Turan folds to cocktail
    ],
)
def test_expected_eulerian_restricted(spec, k, verdict):
    assert expected_eulerian(spec, k) is verdict


def test_expected_eulerian_at_full_bound():
    assert expected_eulerian(FamilySpec.cocktail(6), 6) is True
    assert expected_eulerian(FamilySpec.cycle(4), 4) is True  # C_4 is a cocktail graph
    assert expected_eulerian(FamilySpec.path(4), 4) is False
    assert expected_eulerian(FamilySpec.complete(4), 4) is False
    union = FamilySpec.disjoint_union(FamilySpec.cocktail(4), FamilySpec.cocktail(4))
    assert expected_eulerian(union, 8) is True
    mixed = FamilySpec.disjoint_union(FamilySpec.path(3), FamilySpec.cocktail(4))
    assert expected_eulerian(mixed, 7) is False


def test_expected_eulerian_uncharacterized():
    with pytest.raises(UncharacterizedInstance):
        expected_eulerian(FamilySpec.path(6), 2)  # k = gamma, degenerate
    with pytest.raises(UncharacterizedInstance):
        expected_eulerian(FamilySpec.turan(7, 3), 4)  # no claim covers this family
    with pytest.raises(UncharacterizedInstance):
        expected_eulerian(
            FamilySpec.disjoint_union(FamilySpec.path(2), FamilySpec.path(2)), 3
        )


def test_expected_unrestricted_component_rule():
    assert expected_eulerian_unrestricted(make_family(FamilySpec.cocktail(6)))
    assert not expected_eulerian_unrestricted(make_family(FamilySpec.path(5)))
    # isolated vertices are harmless alongside cocktail components
    from domrec import SeedGraph, disjoint_union

    g = disjoint_union([make_family(FamilySpec.cocktail(4)), SeedGraph(1, [0])])
    assert expected_eulerian_unrestricted(g)


# --- staged verdict vs fully materialized oracle -----------------------------


def test_staged_verdict_matches_materialized_exhaustively():
    """The odd-witness fast path must agree with the materialized report for
    every connected seed on up to 5 vertices and every feasible k."""
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n, connected_only=True):
            table = dominating_table(g)
            gamma = domination_profile(g).gamma
            for k in range(gamma, n + 1):
                fast = computed_eulerian(g, k, table)
                full = eulerian_report(build_reconfig(g, k)).is_eulerian
                assert fast == full, (g.adj, k)


def test_computed_eulerian_builds_from_the_table_it_is_given(monkeypatch):
    g = make_family(FamilySpec.cocktail(6))
    table = dominating_table(g)

    def recomputed(_):
        raise AssertionError("domination table computed again")

    monkeypatch.setattr(theorems, "dominating_table", recomputed)
    monkeypatch.setattr(reconfig, "dominating_table", recomputed)
    assert computed_eulerian(g, 6, table) is True


def test_lattice_verdict_matches_materialized_on_every_small_labeled_pair():
    """Every labeled seed on up to 5 vertices, disconnected ones included, at
    every k from gamma to n: the lattice verdict equals the report on the
    built graph."""
    pairs = 0
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            table = dominating_table(g)
            for k in range(domination_profile(g, table).gamma, n + 1):
                full = eulerian_report(build_reconfig(g, k, table=table)).is_eulerian
                assert computed_eulerian(g, k, table) is full, (g.adj, k)
                pairs += 1
    assert pairs == 4429


@settings(max_examples=60, deadline=None)
@given(seed_graphs(min_n=1, max_n=10))
def test_lattice_verdict_matches_materialized_on_random_seeds(g):
    table = dominating_table(g)
    for k in range(domination_profile(g, table).gamma, g.n + 1):
        full = eulerian_report(build_reconfig(g, k, table=table)).is_eulerian
        assert computed_eulerian(g, k, table) is full, (g.adj, k)


def test_computed_eulerian_rejects_k_outside_the_order():
    g = make_family(FamilySpec.cycle(9))
    for k in (-1, 10):
        with pytest.raises(ValueError):
            computed_eulerian(g, k)


def test_computed_eulerian_below_gamma_raises():
    """No set of size <= k dominates: BoundBelowGamma, as the build raises,
    not an empty D_k called Eulerian."""
    with pytest.raises(BoundBelowGamma):
        computed_eulerian(make_family(FamilySpec.cycle(9)), 2)
    with pytest.raises(BoundBelowGamma):
        computed_eulerian(make_family(FamilySpec.path(1)), 0)


#: Claims whose verdicts are all computed_eulerian's, at small bounds.
LATTICE_CLAIMS = [
    (ClaimId.PATH_CYCLE, {"n_max": 9}),
    (ClaimId.COMPLETE_BIPARTITE, {"n_max": 5}),
    (ClaimId.COCKTAIL_K, {"n_max": 10}),
    (ClaimId.COMPLETE_K, {"n_max": 8}),
    (ClaimId.CORONA, {"inner_max": 3}),
    (ClaimId.BIPARTITE_WELL_DOMINATED, {"inner_max": 3}),
    (ClaimId.UNIVERSAL_GAMMA_SET, {"n_max": 5}),
    (ClaimId.DOMINATING_GRAPH_CHARACTERIZATION, {"n_max": 5}),
]


def _unclocked(report) -> dict:
    out = report.to_json_dict()
    del out["elapsed_seconds"]
    return out


@pytest.mark.parametrize("claim,bounds", LATTICE_CLAIMS, ids=[c.value for c, _ in LATTICE_CLAIMS])
def test_lattice_claims_build_no_reconfiguration_graph(monkeypatch, claim, bounds):
    """These claims decide every D_k on the lattice: with builds refused for
    every seed but K_1, each gives the report it gives unpatched."""
    unpatched = _unclocked(verify_claim(claim, **bounds))
    build = theorems.build_reconfig

    def refused(g, k, *args, **kwargs):
        if g.n > 1:
            raise AssertionError(f"D_{k} of {g!r} built")
        return build(g, k, *args, **kwargs)

    monkeypatch.setattr(theorems, "build_reconfig", refused)
    assert _unclocked(verify_claim(claim, **bounds)) == unpatched


@settings(max_examples=80, deadline=None)
@given(seed_graphs(min_n=1, max_n=6))
def test_odd_witness_is_a_real_odd_node(g):
    """The lattice mask of odd-degree nodes equals the odd-degree nodes of the
    materialized graph, at every feasible k."""
    table = dominating_table(g)
    for k in range(domination_profile(g).gamma, g.n + 1):
        r = build_reconfig(g, k)
        odd = sum(1 << s for i, s in enumerate(r.nodes) if r.degree(i) % 2)
        assert odd_degree_nodes(g.n, table, k) == odd, (g.adj, k)


# --- claim runners at reduced bounds -----------------------------------------


def test_parity_claim_small():
    report = verify_claim(ClaimId.PARITY_ODD, n_max=4)
    assert report.passed
    assert report.instances_checked == 1 + 2 + 8 + 64


def test_characterization_claim_small():
    report = verify_claim("dominating_graph_characterization", n_max=5)
    assert report.passed
    assert report.instances_checked == 1 + 4 + 38 + 728
    seeds = report.details["eulerian_seeds"]
    assert len(seeds["4"]) == 3 and seeds["5"] == [] and seeds["2"] == [] == seeds["3"]


def test_path_cycle_claim_small():
    report = verify_claim(ClaimId.PATH_CYCLE, n_max=8)
    assert report.passed
    assert report.details["eulerian_instances"] == [
        ["cycle:3", 2],
        ["cycle:7", 4],
        ["path:4", 3],
    ]


def test_complete_bipartite_claim_small():
    report = verify_claim(ClaimId.COMPLETE_BIPARTITE, n_max=5)
    assert report.passed
    expected = []
    for m in range(1, 6):
        for n2 in range(m, 6):
            gamma = 1 if m == 1 else 2
            for k in range(gamma + 1, m + n2):
                if (m == 1 and n2 % 2 == 0 and k % 2 == 1) or (
                    m >= 3 and (m - n2) % 2 == 0 and k == 3
                ):
                    expected.append([f"biclique:{m},{n2}", k])
    assert report.details["eulerian_instances"] == sorted(expected)


def test_cocktail_claim_small():
    report = verify_claim(ClaimId.COCKTAIL_K, n_max=8)
    assert report.passed
    # even k in 2 < k < n, plus k = n for every even n
    assert report.details["eulerian_instances"] == sorted(
        [["cocktail:4", 4], ["cocktail:6", 4], ["cocktail:6", 6],
         ["cocktail:8", 4], ["cocktail:8", 6], ["cocktail:8", 8]]
    )


def test_complete_claim_small():
    report = verify_claim(ClaimId.COMPLETE_K, n_max=9)
    assert report.passed
    assert report.details["eulerian_instances"] == [
        ["complete:3", 2], ["complete:5", 2], ["complete:7", 2], ["complete:9", 2]
    ]


def test_corona_claim_small():
    report = verify_claim(ClaimId.CORONA, inner_max=3)
    assert report.passed
    assert report.instances_checked == 2 * 1 + 8 * 2  # n=2: k=3; n=3: k in {4,5}


def test_mixed_parity_claim_small():
    report = verify_mixed_parity_lemma(n_max=5)
    assert report.passed
    assert report.details["graphs_scanned"] == 1 + 4 + 38 + 728
    # P_2 has universal threshold 1, so it never meets the conditions
    assert report.instances_checked < report.details["graphs_scanned"]
    with pytest.raises(BoundExceeded):
        verify_mixed_parity_lemma(n_max=8)


def test_universal_gamma_set_claim_small():
    report = verify_claim(ClaimId.UNIVERSAL_GAMMA_SET, n_max=5)
    assert report.passed
    # n=2: K_2; n=3: K_3; n=4: K_4 and the 3 cocktail labelings; n=5: K_5
    assert report.instances_checked == 7


def test_gamma_formulas_claim_small():
    report = verify_claim(ClaimId.GAMMA_FORMULAS, path_max=9, complete_max=6,
                          biclique_max=4)
    assert report.passed


def test_connected_odd_bipartite_claim_small():
    report = verify_claim(ClaimId.DOMINATING_GRAPH_CONNECTED_ODD_BIPARTITE, n_max=4)
    assert report.passed
    assert report.instances_checked == 1 + 1 + 4 + 38


def test_product_decomposition_single():
    parts = [make_family(FamilySpec.path(2)), make_family(FamilySpec.path(2))]
    report = verify_product_decomposition(parts)
    assert report.passed
    h4 = make_family(FamilySpec.cocktail(4))
    assert verify_product_decomposition([h4, h4]).passed
    mixed = [make_family(FamilySpec.path(3)), h4]
    assert verify_product_decomposition(mixed).passed  # both routes non-Eulerian


def test_product_decomposition_three_parts():
    parts = [
        make_family(FamilySpec.path(2)),
        make_family(FamilySpec.cycle(3)),
        make_family(FamilySpec.complete(1)),
    ]
    assert verify_product_decomposition(parts).passed


def test_product_decomposition_claim_sampled():
    report = verify_claim(ClaimId.PRODUCT_DECOMPOSITION, samples=12, max_part=4)
    assert report.passed
    assert report.instances_checked == 12


def _tampered_products(monkeypatch, tamper):
    """Make the product claim see products that tamper has changed in place."""
    def tampered(a, b):
        prod = reconfig.cartesian_product(a, b)
        tamper(prod)
        return prod

    monkeypatch.setattr(theorems, "cartesian_product", tampered)
    return [make_family(FamilySpec.path(2)), make_family(FamilySpec.path(2))]


def test_product_decomposition_flags_a_changed_node_mask(monkeypatch):
    def change_mask(prod):
        prod.nodes[4] |= 1 << prod.seed.n

    report = verify_product_decomposition(_tampered_products(monkeypatch, change_mask))
    assert not report.passed
    assert report.counterexamples == [{
        "seed": "union[path:2, path:2]", "k": None,
        "expected": "the union's node masks, once each", "computed": "node masks differ"}]


def test_product_decomposition_flags_a_dropped_edge(monkeypatch):
    def drop_edge(prod):
        j = prod.adjacency[4].pop(0)
        prod.adjacency[j].remove(4)

    report = verify_product_decomposition(_tampered_products(monkeypatch, drop_edge))
    assert not report.passed
    assert report.counterexamples == [{
        "seed": "union[path:2, path:2]", "k": None,
        "expected": "edge-preserving bijection", "computed": "node {1,3} neighbor mismatch"}]


@pytest.mark.parametrize("connected", [False, True])
def test_labeled_seeds_come_from_the_chunks_in_enumeration_order(connected):
    for n in range(1, 7):
        assert (list(theorems._labeled(n, n, connected))
                == list(enumerate_labeled_graphs(n, connected_only=connected)))


def test_bipartite_well_dominated_reports_catalog_defect():
    """The catalogued 4-cycle bullet contradicts the path/cycle theorem; the
    verifier must surface exactly that counterexample."""
    report = verify_claim(ClaimId.BIPARTITE_WELL_DOMINATED, inner_max=3)
    assert not report.passed
    assert report.details["counterexample_count"] == 1
    ce = report.counterexamples[0]
    assert ce["seed"] == "cycle:4" and ce["k"] == 3
    assert ce["expected"] is True and ce["computed"] is False


def test_negative_control_flags_exactly_the_plant():
    report = negative_control_characterization(6)
    assert not report.passed
    assert report.details["counterexample_count"] == 1
    ce = report.counterexamples[0]
    assert ce["seed"].startswith("planted:cocktail:6")
    assert ce["expected"] is True and ce["computed"] is False


def test_unknown_claim():
    with pytest.raises(ClaimUnknown):
        verify_claim("no_such_claim")


def test_claim_enum_is_complete():
    assert len(ClaimId) == 13
    assert {c.value for c in ClaimId} == {
        "parity_odd", "product_decomposition", "mixed_parity_lemma",
        "dominating_graph_characterization", "path_cycle", "complete_bipartite",
        "cocktail_k", "complete_k", "universal_gamma_set", "corona",
        "bipartite_well_dominated", "gamma_formulas",
        "dominating_graph_connected_odd_bipartite",
    }


def test_reports_are_deterministic():
    a = verify_claim(ClaimId.PATH_CYCLE, n_max=7)
    b = verify_claim(ClaimId.PATH_CYCLE, n_max=7)
    assert a.to_json_dict()["details"] == b.to_json_dict()["details"]
    assert a.instances_checked == b.instances_checked


def test_expected_verdicts_match_materialized_reports():
    """Fully materialized oracle agreement, no staging: for characterized
    instances the closed form equals the built graph's report."""
    cases = []
    for n in range(3, 11):
        cases.append((FamilySpec.path(n), range(-(-n // 3) + 1, n)))
        cases.append((FamilySpec.cycle(n), range(-(-n // 3) + 1, n)))
    for n in range(4, 9, 2):
        cases.append((FamilySpec.cocktail(n), range(3, n + 1)))
    for n in range(2, 9):
        cases.append((FamilySpec.complete(n), range(2, n)))
    for m in range(1, 5):
        for n2 in range(m, 5):
            gamma = 1 if m == 1 else 2
            cases.append(
                (FamilySpec.complete_bipartite(m, n2), range(gamma + 1, m + n2))
            )
    for inner in range(2, 5):
        cases.append(
            (FamilySpec.corona(FamilySpec.path(inner)), range(inner + 1, 2 * inner))
        )
    checked = 0
    for spec, ks in cases:
        g = make_family(spec)
        for k in ks:
            got = eulerian_report(build_reconfig(g, k)).is_eulerian
            assert got == expected_eulerian(spec, k), (spec.spec_string(), k)
            checked += 1
    assert checked > 100
