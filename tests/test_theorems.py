"""Claim catalog: expected verdicts, lattice verdicts, claim runners."""

import random
from functools import cache
from itertools import chain

import pytest
from hypothesis import given, settings

from conftest import (
    built_product_problems,
    dominating_graph_shape,
    enumerate_labeled_graphs,
    is_bipartite,
    listed_adjacency,
    odd_degree_nodes,
    package_lattice,
    parity_bipartition_valid,
    popcount_nodes,
    reference_corona_sweep,
    seed_graphs,
)
from domrec import (
    ClaimId,
    FamilySpec,
    SeedGraph,
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
from domrec.graphs import (
    corona_of,
    labeled_graph,
    to_graph6,
    vertex_pairs,
)
from domrec.theorems import (
    computed_eulerian,
    expected_eulerian_unrestricted,
    negative_control_characterization,
)
from domrec import domination, reconfig, theorems
from domrec.domination import bounded, dominating_table, labeled_chunks, up_closure_gaps


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


def test_expected_eulerian_without_a_family_branch_raises(monkeypatch):
    """A family with a closed-form gamma but no verdict branch is not
    characterized: the last raise of expected_eulerian."""
    spec = FamilySpec.disjoint_union(FamilySpec.path(2), FamilySpec.path(2))
    monkeypatch.setattr(theorems, "_family_gamma", lambda _: 1)
    with pytest.raises(UncharacterizedInstance) as info:
        theorems.expected_eulerian(spec, 2)
    assert str(info.value) == f"no claim covers family {spec.spec_string()}"


def test_expected_verdicts_of_aliased_families_match_the_lattice():
    """Every Turan spec with n <= 12, every biclique with 8 >= m > n and
    every star with n <= 8, at each k with a characterized verdict: the
    aliases fold Turan graphs into complete graphs, cocktail parties and
    bicliques, stars into bicliques and m > n into n, m."""
    specs = ([FamilySpec.turan(n, r) for n in range(1, 13) for r in range(1, n + 1)]
             + [FamilySpec.complete_bipartite(m, n) for m in range(1, 9) for n in range(1, m)]
             + [FamilySpec.star(n) for n in range(1, 9)])
    checked = 0
    for spec in specs:
        g = make_family(spec)
        for k in range(g.n + 1):
            try:
                expected = expected_eulerian(spec, k)
            except UncharacterizedInstance:
                continue
            assert computed_eulerian(g, k) is expected, (spec.spec_string(), k)
            checked += 1
    assert checked == 442


def test_expected_unrestricted_component_rule():
    assert expected_eulerian_unrestricted(make_family(FamilySpec.cocktail(6)))
    assert not expected_eulerian_unrestricted(make_family(FamilySpec.path(5)))
    # isolated vertices are harmless alongside cocktail components
    from domrec import SeedGraph, disjoint_union

    g = disjoint_union([make_family(FamilySpec.cocktail(4)), SeedGraph(1, [0])])
    assert expected_eulerian_unrestricted(g)


# --- lattice verdict vs materialized oracle ----------------------------------


def test_computed_eulerian_reads_the_given_table_and_computes_none(monkeypatch):
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


@pytest.mark.parametrize("n", [domination._TABLE_N, domination._TABLE_N + 1])
def test_verdicts_at_the_edge_of_the_cached_seed_lattices(n):
    """n = 8 is the last order whose _seed_lattice holds a cover table, n = 9
    the first without: a seeded sparse and dense seed at each, and cocktail:8, at every
    k from gamma to n.  The verdict equals the report on the built graph, and
    bounded the popcount selection.  The labeled-sweep benchmark's n = 7
    seeds are never cocktail party graphs, so cocktail:8 pins the Eulerian
    side of the cached path."""
    rng = random.Random(n)
    seeds = [SeedGraph.from_edges(n, [e for e in vertex_pairs(n) if rng.random() < density])
             for density in (0.2, 0.8)]
    if n == 8:
        seeds.append(make_family(FamilySpec.cocktail(8)))
    eulerian = []
    for g in seeds:
        table = dominating_table(g)
        for k in range(domination_profile(g, table).gamma, n + 1):
            assert bounded(n, table, k) == popcount_nodes(n, table, k), (g.adj, k)
            full = eulerian_report(build_reconfig(g, k, table=table)).is_eulerian
            assert computed_eulerian(g, k) is full, (g.adj, k)
            eulerian.append(full)
    assert True in eulerian and False in eulerian


def test_seed_lattices_hold_one_flip_for_every_k():
    """A rejected k at every n <= 8 raises before any seed lattice is read,
    so their cache stays empty; verdicts at every k on seeds with n = 8..16
    then cache one record per n.  Each holds the cached member masks and
    size classes themselves, one parity flip whatever k is (the sets S with
    n - |S| odd), and a cover table up to n = 8 alone."""
    paths = [dominating_table(make_family(FamilySpec.path(n)))
             for n in range(1, domination._TABLE_N + 1)]
    domination._seed_lattice.cache_clear()
    for n, table in enumerate(paths, 1):
        for k in (-1, n + 1):
            for kernel in (bounded, domination.lattice_eulerian):
                with pytest.raises(ValueError, match=rf"k must be in \[0, {n}\], got {k}"):
                    kernel(n, table, k)
    assert domination._seed_lattice.cache_info().currsize == 0
    for n in range(domination._TABLE_N, 17):
        g = make_family(FamilySpec.cycle(n))
        table = dominating_table(g)
        gamma = domination_profile(g, table).gamma
        for k in range(n + 1):
            if k < gamma:
                with pytest.raises(BoundBelowGamma):
                    computed_eulerian(g, k, table)
            else:
                computed_eulerian(g, k, table)
        assert domination._seed_lattice.cache_info().currsize == n - domination._TABLE_N + 1
        lattice = domination._seed_lattice(n)
        assert lattice.member is domination._members(n) and lattice.size is domination._sizes(n)
        assert lattice.flip == sum(1 << s for s in range(1 << n) if (n - s.bit_count()) & 1)
        assert (lattice.cover is None) is (n > domination._TABLE_N)


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


#: Every claim, at small bounds.
LATTICE_CLAIMS = [
    (ClaimId.PARITY_ODD, {"n_max": 4}),
    (ClaimId.PRODUCT_DECOMPOSITION, {}),
    (ClaimId.MIXED_PARITY_LEMMA, {"n_max": 5}),
    (ClaimId.PATH_CYCLE, {"n_max": 9}),
    (ClaimId.COMPLETE_BIPARTITE, {"n_max": 5}),
    (ClaimId.COCKTAIL_K, {"n_max": 10}),
    (ClaimId.COMPLETE_K, {"n_max": 8}),
    (ClaimId.CORONA, {"inner_max": 3}),
    (ClaimId.BIPARTITE_WELL_DOMINATED, {"inner_max": 3}),
    (ClaimId.UNIVERSAL_GAMMA_SET, {"n_max": 5}),
    (ClaimId.GAMMA_FORMULAS, {}),
    (ClaimId.DOMINATING_GRAPH_CHARACTERIZATION, {"n_max": 5}),
    (ClaimId.DOMINATING_GRAPH_CONNECTED_ODD_BIPARTITE, {"n_max": 4}),
]


def _unclocked(report) -> dict:
    out = report.to_json_dict()
    del out["elapsed_seconds"]
    return out


def test_lattice_claims_cover_the_catalog():
    assert {claim for claim, _ in LATTICE_CLAIMS} == set(ClaimId)


@pytest.mark.parametrize("claim,bounds", LATTICE_CLAIMS, ids=[c.value for c, _ in LATTICE_CLAIMS])
def test_lattice_claims_build_no_reconfiguration_graph(monkeypatch, claim, bounds):
    """Every claim decides on the lattice: theorems holds no object of
    reconfig, and with reconfig's builders and built-graph checks raising,
    each claim gives the report it gives unpatched."""
    assert not [name for name, value in vars(theorems).items()
                if getattr(value, "__module__", None) == reconfig.__name__]
    unpatched = _unclocked(verify_claim(claim, **bounds))

    def refused(*args, **kwargs):
        raise AssertionError("a reconfiguration graph was built or read")

    for name in ("ReconfigGraph", "build_reconfig", "eulerian_report"):
        monkeypatch.setattr(reconfig, name, refused)
    assert _unclocked(verify_claim(claim, **bounds)) == unpatched


@settings(max_examples=80, deadline=None)
@given(seed_graphs(min_n=1, max_n=6))
def test_odd_witness_is_a_real_odd_node(g):
    """The lattice mask of odd-degree nodes equals the odd-degree nodes of the
    materialized graph, at every feasible k."""
    table = dominating_table(g)
    for k in range(domination_profile(g).gamma, g.n + 1):
        r = build_reconfig(g, k)
        adjacency = listed_adjacency(r)
        odd = sum(1 << s for i, s in enumerate(r.nodes) if len(adjacency[i]) % 2)
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


@pytest.mark.parametrize("count", [0, 1])
def test_product_decomposition_needs_two_parts(count):
    parts = [make_family(FamilySpec.path(2))] * count
    with pytest.raises(ValueError) as excinfo:
        verify_product_decomposition(parts)
    assert str(excinfo.value) == "need at least two parts"


def test_product_decomposition_claim_sampled():
    report = verify_claim(ClaimId.PRODUCT_DECOMPOSITION, samples=12, max_part=4)
    assert report.passed
    assert report.instances_checked == 12


#: The part lists of test_product_decomposition_single and _three_parts.
PRODUCT_PART_LISTS = [
    [FamilySpec.path(2), FamilySpec.path(2)],
    [FamilySpec.cocktail(4), FamilySpec.cocktail(4)],
    [FamilySpec.path(3), FamilySpec.cocktail(4)],
    [FamilySpec.path(2), FamilySpec.cycle(3), FamilySpec.complete(1)],
]


def test_product_decomposition_agrees_with_the_built_product(monkeypatch):
    """The claim's 100 sampled instances and the hand-picked part lists: the
    table comparison finds what the built union, product and reports find."""
    samples = []
    instance = theorems._product_instance

    def recorded(report, parts):
        samples.append(parts)
        return instance(report, parts)

    monkeypatch.setattr(theorems, "_product_instance", recorded)
    report = verify_claim(ClaimId.PRODUCT_DECOMPOSITION)
    assert report.bounds == {"samples": 100, "max_part": 5, "rng_seed": 2025}
    monkeypatch.undo()
    samples += [[make_family(spec) for spec in specs] for specs in PRODUCT_PART_LISTS]
    for parts in samples:
        found = [(ce["expected"], ce["computed"])
                 for ce in verify_product_decomposition(parts).counterexamples]
        assert found == built_product_problems(parts), [p.adj for p in parts]
    assert len(samples) == 104


def test_product_decomposition_flags_a_changed_union_table(monkeypatch):
    """The union's table with its lowest dominating set removed is not the
    outer product of its parts' tables."""
    table = theorems.dominating_table

    def dropped(g):
        t = table(g)
        return t & (t - 1) if g.n == 4 else t

    monkeypatch.setattr(theorems, "dominating_table", dropped)
    parts = [make_family(FamilySpec.path(2)), make_family(FamilySpec.path(2))]
    assert verify_product_decomposition(parts).counterexamples == [{
        "seed": "union[path:2, path:2]", "k": None,
        "expected": "the union's node masks, once each", "computed": "node masks differ"}]


def test_product_decomposition_flags_a_flipped_part_verdict(monkeypatch):
    parts = [make_family(FamilySpec.cocktail(4)), make_family(FamilySpec.cocktail(4))]
    verdict = theorems.computed_eulerian

    def flipped(g, k, table=None):
        return verdict(g, k, table) ^ (g is parts[0])

    monkeypatch.setattr(theorems, "computed_eulerian", flipped)
    assert verify_product_decomposition(parts).counterexamples == [{
        "seed": "union[cocktail:4, cocktail:4]", "k": None,
        "expected": "union Eulerian iff factors [False, True]", "computed": True}]


def test_characterization_flags_a_changed_single_vertex_table(monkeypatch):
    """D(K_1) is the one set {0}: a table that also holds the empty set is
    the complete:1 counterexample."""
    table = theorems.dominating_table
    monkeypatch.setattr(theorems, "dominating_table",
                        lambda g: 0b11 if g.n == 1 else table(g))
    report = verify_claim(ClaimId.DOMINATING_GRAPH_CHARACTERIZATION, n_max=3)
    assert report.counterexamples == [{
        "seed": "complete:1", "k": 1, "expected": "one isolated node", "computed": "table 0b11"}]


def test_parity_odd_reports_a_planted_even_count(monkeypatch):
    """With every chunk's parity fold read as even, each seed is a
    counterexample that gives its dominating-set count."""
    monkeypatch.setattr(domination.LabeledChunk, "parity", lambda chunk, x: 0)
    report = verify_claim(ClaimId.PARITY_ODD, n_max=2)
    assert report.counterexamples == [
        {"seed": seed, "k": None, "expected": "odd dominating-set count", "computed": count}
        for seed, count in [("g6:@", 1), ("g6:A?", 1), ("g6:A_", 3)]]


#: The three labeled 4-cycles, cocktail:4, in edge-mask order.
C4_SEEDS = ["g6:C]", "g6:Cl", "g6:Cr"]


def test_characterization_reports_a_seed_whose_verdict_differs(monkeypatch):
    """With no seed taken for a cocktail party, the Eulerian 4-cycles are
    the counterexamples, and they are still listed as Eulerian."""
    monkeypatch.setattr(theorems, "is_cocktail_party", lambda g: False)
    report = verify_claim(ClaimId.DOMINATING_GRAPH_CHARACTERIZATION, n_max=4)
    assert report.counterexamples == [
        {"seed": seed, "k": 4, "expected": False, "computed": True} for seed in C4_SEEDS]
    assert report.details["eulerian_seeds"] == {"2": [], "3": [], "4": ["C]", "Cl", "Cr"]}


def test_universal_gamma_set_reports_a_seed_of_neither_family(monkeypatch):
    monkeypatch.setattr(theorems, "is_cocktail_party", lambda g: False)
    report = verify_claim(ClaimId.UNIVERSAL_GAMMA_SET, n_max=4)
    assert report.counterexamples == [
        {"seed": seed, "k": None, "expected": "complete or cocktail", "computed": "neither"}
        for seed in C4_SEEDS]


def test_universal_gamma_set_reports_each_restricted_mismatch(monkeypatch):
    """With every verdict flipped, each k of K_3, K_4 and the 4-cycles
    between gamma and n is a counterexample, with its closed-form verdict."""
    verdicts = theorems.lattice_eulerians
    monkeypatch.setattr(theorems, "lattice_eulerians",
                        lambda n, table, ks: [not v for v in verdicts(n, table, ks)])
    report = verify_claim(ClaimId.UNIVERSAL_GAMMA_SET, n_max=4)
    assert [(ce["seed"], ce["k"], ce["expected"], ce["computed"])
            for ce in report.counterexamples] == [
        ("g6:Bw", 2, True, False), *((seed, 3, False, True) for seed in C4_SEEDS),
        ("g6:C~", 2, False, True), ("g6:C~", 3, False, True)]


def test_gamma_formulas_report_a_planted_gamma(monkeypatch):
    """A planted gamma = 3 on path:4, whose table no other family of these
    bounds shares, is its one counterexample."""
    number, planted = theorems.domination_number, dominating_table(make_family(FamilySpec.path(4)))
    monkeypatch.setattr(theorems, "domination_number",
                        lambda n, table: 3 if table == planted else number(n, table))
    report = verify_claim(ClaimId.GAMMA_FORMULAS, path_max=4, complete_max=2, biclique_max=2)
    assert report.instances_checked == 11
    assert report.counterexamples == [
        {"seed": "path:4", "k": None, "expected": 2, "computed": 3}]


def test_gamma_formulas_read_no_profile(monkeypatch):
    """At its default bounds the claim reads gamma off each table's first
    size class and builds no domination profile."""
    def fail(*args):
        raise AssertionError("a profile was built")

    monkeypatch.setattr(theorems, "domination_profile", fail)
    report = verify_claim(ClaimId.GAMMA_FORMULAS)
    assert report.passed and report.instances_checked == 76


def _shape(n: int, table: int) -> tuple[bool, bool]:
    """(connected, parity bipartite) of one seed's D(G): dominating_graph_shape
    on the seed's lattice, each mask folded to whether it is empty."""
    unreached, crossed = dominating_graph_shape(package_lattice(n), table)
    return not unreached, not crossed


def test_dominating_graph_shape_matches_the_built_graph_on_every_small_labeled_seed():
    """Every labeled seed on up to 5 vertices, disconnected ones included:
    the lattice answers equal the built D(G)'s connectivity and parity
    bipartition."""
    seeds = 0
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            r = build_reconfig(g, n)
            built = (eulerian_report(r).is_connected, parity_bipartition_valid(r))
            assert _shape(n, dominating_table(g)) == built, g.adj
            seeds += 1
    assert seeds == 1099


@settings(max_examples=60, deadline=None)
@given(seed_graphs(min_n=1, max_n=10))
def test_dominating_graph_shape_matches_the_built_graph_on_random_seeds(g):
    r = build_reconfig(g, g.n)
    built = (eulerian_report(r).is_connected, parity_bipartition_valid(r))
    assert _shape(g.n, dominating_table(g)) == built


def test_dominating_graph_shape_of_hand_picked_sets():
    """Two sets two vertices apart, {} and {0,1}, are two components of one
    parity class."""
    assert _shape(2, 0b1001) == (False, True)
    assert _shape(2, 0b1011) == (True, True)


def test_dominating_graph_shape_on_chunks_matches_the_per_seed_answers():
    """Every labeled seed with n <= 6, disconnected ones included: the folds
    of a chunk's masks give each graph the connectivity, parity bipartition,
    odd order, even-degree node and up-closure gaps that its own table
    gives.  Every table is up-closed and every D(G) connected there: the
    lemma the claim cites, measured."""

    @cache  # the 33,867 seeds have 15,284 distinct tables
    def seed_answers(n, table):
        return _shape(n, table) + (table.bit_count() % 2 == 1,
                                   odd_degree_nodes(n, table, n) != table,
                                   up_closure_gaps(package_lattice(n), table) != 0)

    for n in range(1, 7):
        sliced, seeds = [], []
        for chunk in labeled_chunks(n):
            unreached, crossed = dominating_graph_shape(chunk.lattice, chunk.table)
            bits = [~chunk.any(unreached), ~chunk.any(crossed), chunk.parity(chunk.table),
                    chunk.any(chunk.table & ~chunk.odd_degree_nodes()),
                    chunk.any(up_closure_gaps(chunk.lattice, chunk.table))]
            sliced += [tuple(bool(x >> i & 1) for x in bits) for i in range(chunk.count)]
            seeds += chunk.graphs(chunk.every)
        assert sliced == [seed_answers(n, dominating_table(g)) for g in seeds], n
        assert all(connected and not gaps for connected, *_, gaps in sliced), n


def test_connected_odd_bipartite_reports_planted_chunk_tables(monkeypatch):
    """Real tables pass, so three blocks of the n = 4 chunk are tampered: K_4
    loses every 3-set, which cuts V off; the star at vertex 0 loses its
    lowest dominating set, which leaves it an even number of nodes; and the
    star at vertex 1 loses {1,2} and {1,3}, which leaves its table not
    up-closed while its D(G), of 7 nodes, stays connected.  The claim reports
    those three graphs, each with its one problem."""
    pairs = vertex_pairs(4)
    complete = (1 << len(pairs)) - 1
    star, star1 = (sum(1 << e for e, p in enumerate(pairs) if v in p) for v in (0, 1))
    lost = 1 << 0b0110 | 1 << 0b1010
    block = dominating_table(labeled_graph(4, star1)) & ~lost
    assert dominating_graph_shape(package_lattice(4), block)[0] == 0
    assert up_closure_gaps(package_lattice(4), block) != 0
    chunks = theorems._chunks

    def tampered(n_min, n_max):
        for chunk in chunks(n_min, n_max):
            if chunk.n == 4:
                _, size = chunk.lattice
                star_block = chunk.table >> 16 * star & 0xFFFF
                chunk.table &= ~(size[3] & 0xFFFF << 16 * complete)
                chunk.table &= ~((star_block & -star_block) << 16 * star)
                chunk.table &= ~(lost << 16 * star1)
            yield chunk

    monkeypatch.setattr(theorems, "_chunks", tampered)
    report = verify_claim(ClaimId.DOMINATING_GRAPH_CONNECTED_ODD_BIPARTITE, n_max=4)
    assert report.instances_checked == 1 + 1 + 4 + 38
    assert [(ce["seed"], ce["computed"]) for ce in report.counterexamples] == [
        (f"g6:{to_graph6(labeled_graph(4, star))}", ["even node count"]),
        (f"g6:{to_graph6(labeled_graph(4, star1))}", ["table not up-closed"]),
        (f"g6:{to_graph6(labeled_graph(4, complete))}", ["table not up-closed"]),
    ]


@pytest.mark.parametrize("odd_nodes, parities", [
    (lambda chunk: chunk.table, {"even": False, "odd": True}),
    (lambda chunk: 0, {"even": True, "odd": False}),
], ids=["all-odd", "all-even"])
def test_mixed_parity_reports_each_missing_parity(monkeypatch, odd_nodes, parities):
    """With every node of every D(G) made odd, then even, each of the 37
    instances at n <= 4 lacks one degree parity, and its counterexample
    names which one it has."""
    monkeypatch.setattr(domination.LabeledChunk, "odd_degree_nodes", odd_nodes)
    report = verify_mixed_parity_lemma(n_max=4)
    assert report.instances_checked == report.details["counterexample_count"] == 37
    assert len(report.counterexamples) == theorems.COUNTEREXAMPLE_CAP
    assert all(ce["computed"] == parities for ce in report.counterexamples)


def test_labeled_seeds_come_from_the_chunks_in_enumeration_order():
    """The chunks the sweeps read hold every labeled graph in enumeration
    order."""
    for n in range(1, 7):
        seeds = [g for c in theorems._chunks(n, n) for g in c.graphs(c.every)]
        assert seeds == list(enumerate_labeled_graphs(n))


@pytest.mark.parametrize("claim", [
    ClaimId.PARITY_ODD, ClaimId.DOMINATING_GRAPH_CHARACTERIZATION, ClaimId.MIXED_PARITY_LEMMA,
    ClaimId.UNIVERSAL_GAMMA_SET, ClaimId.DOMINATING_GRAPH_CONNECTED_ODD_BIPARTITE,
], ids=lambda c: c.value)
def test_chunk_claim_reports_do_not_depend_on_the_chunk_width(monkeypatch, claim):
    """The five claims decided on lattice chunks give one report whatever
    CHUNK_BITS is.  At 17 each n <= 5 is one chunk; at 3 every chunk with
    n >= 3 holds one graph, so a seed decoded without its chunk's first
    edge mask would change the report."""
    reports = []
    for bits in (3, 8, 17):
        monkeypatch.setattr(domination, "CHUNK_BITS", bits)
        report = verify_claim(claim, n_max=5).to_json_dict()
        del report["elapsed_seconds"]
        reports.append(report)
    assert reports[0] == reports[1] == reports[2]


def test_bipartite_well_dominated_reports_catalog_defect():
    """The catalogued 4-cycle bullet contradicts the path/cycle theorem; the
    verifier must surface exactly that counterexample."""
    report = verify_claim(ClaimId.BIPARTITE_WELL_DOMINATED, inner_max=3)
    assert not report.passed
    assert report.details["counterexample_count"] == 1
    ce = report.counterexamples[0]
    assert ce["seed"] == "cycle:4" and ce["k"] == 3
    assert ce["expected"] is True and ce["computed"] is False


# --- corona claims: one table per inner order -----------------------------------


def _corona_outcome(report):
    return (report.passed, report.instances_checked, report.counterexamples,
            report.details["counterexample_count"])


def _reference_corona_report(monkeypatch, claim, inner_max):
    """The claim's report with the per-inner reference loop as its sweep, in
    place of the one table per order: it is fed every labeled inner graph
    from enumerate_labeled_graphs, the bipartite ones alone (is_bipartite)
    for bipartite_well_dominated."""
    def sweep(report, inner_max, bipartite):
        inners = chain.from_iterable(map(enumerate_labeled_graphs, range(2, inner_max + 1)))
        return reference_corona_sweep(report, filter(is_bipartite, inners) if bipartite else inners,
                                      check_profile=not bipartite)

    with monkeypatch.context() as m:
        m.setattr(theorems, "_corona_sweep", sweep)
        return verify_claim(claim, inner_max=inner_max)


@pytest.mark.parametrize("claim", [ClaimId.CORONA, ClaimId.BIPARTITE_WELL_DOMINATED])
@pytest.mark.parametrize("inner_max", [4, 5])
def test_corona_claims_match_the_per_inner_reference(monkeypatch, claim, inner_max):
    assert _corona_outcome(verify_claim(claim, inner_max=inner_max)) == _corona_outcome(
        _reference_corona_report(monkeypatch, claim, inner_max))


def _tampered_table(monkeypatch, inners):
    """Patch theorems.dominating_table so that every corona of the order of
    an inner graph in inners gets the table of that graph's corona with the
    pendant edge at vertex 0 dropped: one tampered table per order, which
    the claim and the reference both read."""
    honest = theorems.dominating_table
    tampered = {}
    for inner in inners:
        g = corona_of(inner)
        adj = list(g.adj)
        adj[0] ^= 1 << inner.n
        adj[inner.n] ^= 1
        tampered[g.n] = honest(SeedGraph(g.n, adj))

    def table(g):
        half = g.n // 2
        if g.n in tampered and all(g.adj[v + half] == 1 << v for v in range(half)):
            return tampered[g.n]
        return honest(g)

    monkeypatch.setattr(theorems, "dominating_table", table)


def _tampered_reports(monkeypatch, claim, inners, inner_max=4):
    """The claim's report and the reference's with the corona tables of the
    orders of inners tampered."""
    with monkeypatch.context() as m:
        _tampered_table(m, inners)
        return verify_claim(claim, inner_max=inner_max), _reference_corona_report(
            m, claim, inner_max)


def test_corona_claims_report_a_tampered_corona_table(monkeypatch):
    """The coronas of order 8 get the table of the corona of the path
    0-1-2-3 with the pendant edge at vertex 0 dropped: vertex 4 isolated and
    0 joined only to 1, so gamma is 4 ({1, 2, 3, 4}), {0, 4, 5, 6, 7} is a
    minimal dominating set of 5, and D_5 is not Eulerian.  Every inner graph
    of order 4 has these counterexamples, the first ones in edge-mask order
    from the edgeless graph, and both sweeps report and count them alike:
    64 inner graphs with two each, or the 41 bipartite ones with one."""
    path = make_family(FamilySpec.path(4))
    firsts = [f"corona:g6:{to_graph6(labeled_graph(4, mask))}" for mask in range(2)]
    profile = [{"seed": seed, "k": None, "expected": "gamma = upper_gamma = 4",
                "computed": [4, 5]} for seed in firsts]
    missed = [{"seed": seed, "k": 5, "expected": True, "computed": False} for seed in firsts]
    expected = {
        ClaimId.CORONA: ([profile[0], missed[0], profile[1], missed[1]], 128),
        ClaimId.BIPARTITE_WELL_DOMINATED: (
            [{"seed": "cycle:4", "k": 3, "expected": True, "computed": False}, *missed], 42),
    }
    for claim, (head, count) in expected.items():
        report, reference = _tampered_reports(monkeypatch, claim, [path])
        assert report.counterexamples[:len(head)] == head
        assert len(report.counterexamples) == theorems.COUNTEREXAMPLE_CAP
        assert report.details["counterexample_count"] == count
        assert _corona_outcome(report) == _corona_outcome(reference)


@pytest.mark.parametrize("claim", [ClaimId.CORONA, ClaimId.BIPARTITE_WELL_DOMINATED],
                         ids=lambda c: c.value)
def test_tampered_coronas_are_reported_in_edge_mask_order(monkeypatch, claim):
    """Tampered tables at inner orders 2 and 3, from the edgeless inner
    graphs: gamma is one above n at both, and at n = 3 D_4 and D_5 are
    Eulerian.  Counterexamples come in order of n and then edge mask, each
    inner graph's profile problem first, as the per-inner reference reports
    them; the bipartite claim skips the triangle (edge mask 7).  With
    chunks of 2**3 lattice bits, n = 3 takes one graph a chunk, so a
    bipartite inner graph decoded without its chunk's first edge mask would
    show."""
    targets = [labeled_graph(2, 0), labeled_graph(3, 0)]
    for chunk_bits in (domination.CHUNK_BITS, 3):
        monkeypatch.setattr(domination, "CHUNK_BITS", chunk_bits)
        report, reference = _tampered_reports(monkeypatch, claim, targets)
        seeds = [ce["seed"] for ce in report.counterexamples if ce["seed"] != "cycle:4"]
        masks = [(2, 0), (2, 1)] if claim == ClaimId.CORONA else []
        masks += [(3, mask) for mask in range(8) if claim == ClaimId.CORONA or mask != 7]
        order = [f"corona:g6:{to_graph6(labeled_graph(n, mask))}" for n, mask in masks]
        assert sorted(set(seeds), key=seeds.index) == order[:len(set(seeds))], chunk_bits
        assert _corona_outcome(report) == _corona_outcome(reference), chunk_bits


#: Planted expectations: flipped at n = 2 for one k, at n = 3 for two and
#: at n = 4 for three, so that the cap falls inside an inner graph's list.
PLANTED = {(2, 3), (3, 4), (3, 5), (4, 5), (4, 6), (4, 7)}


@pytest.mark.parametrize("claim,count,kept", [
    (ClaimId.CORONA, 2 + 8 * 2 + 64 * 3, (5, 6)),
    (ClaimId.BIPARTITE_WELL_DOMINATED, 1 + 2 + 7 * 2 + 41 * 3, (5, 6, 7)),
], ids=["corona", "bipartite_well_dominated"])
def test_planted_corona_expectations_match_the_per_inner_reference(monkeypatch, claim, count,
                                                                    kept):
    """With _corona_eulerian flipped at PLANTED, every inner graph of a
    planted order disagrees at each planted k: both sweeps report the same
    counterexamples, in order of n and edge mask, and count each of them
    past the cap too.  The kept ones end with the first k's of the edgeless
    inner graph of order 4: two of its three for corona, where the cap
    falls inside its list."""
    honest = theorems._corona_eulerian
    monkeypatch.setattr(theorems, "_corona_eulerian",
                        lambda n, k: honest(n, k) != ((n, k) in PLANTED))
    report = verify_claim(claim, inner_max=5)
    assert report.details["counterexample_count"] == count
    assert len(report.counterexamples) == theorems.COUNTEREXAMPLE_CAP
    seed = f"corona:g6:{to_graph6(labeled_graph(4, 0))}"
    assert [(ce["seed"], ce["k"]) for ce in report.counterexamples[-len(kept):]] == [
        (seed, k) for k in kept]
    assert _corona_outcome(report) == _corona_outcome(
        _reference_corona_report(monkeypatch, claim, 5))


def test_a_planted_profile_failure_matches_the_per_inner_reference(monkeypatch):
    """With the profile of the coronas of order 10 given one more upper
    domination number, each of the 1,024 inner graphs of order 5 has that
    problem, the first 20 in edge-mask order, in both sweeps."""
    honest = theorems.domination_profile

    def profile(g, table=None):
        p = honest(g, table)
        return p._replace(upper_gamma=p.upper_gamma + 1) if g.n == 10 else p

    monkeypatch.setattr(theorems, "domination_profile", profile)
    report = verify_claim(ClaimId.CORONA, inner_max=5)
    assert report.details["counterexample_count"] == 1024
    assert report.counterexamples == [
        {"seed": f"corona:g6:{to_graph6(labeled_graph(5, mask))}", "k": None,
         "expected": "gamma = upper_gamma = 5", "computed": [5, 6]} for mask in range(20)]
    assert _corona_outcome(report) == _corona_outcome(
        _reference_corona_report(monkeypatch, ClaimId.CORONA, 5))


@pytest.mark.parametrize("claim,verdicts,profiles,instances", [
    (ClaimId.CORONA, 10, 4, 4306),
    (ClaimId.BIPARTITE_WELL_DOMINATED, 11, 0, 1644),
])
def test_corona_claims_decide_each_distinct_table_once(monkeypatch, claim, verdicts,
                                                       profiles, instances):
    """At default bounds: one verdict per inner order and k (plus the
    4-cycle's), one profile per inner order, every instance still counted.
    A call of lattice_eulerians counts one verdict per k of its range."""
    calls = {"verdicts": 0, "profiles": 0}

    def counted(name, key, weight=lambda *args: 1):
        original = getattr(theorems, name)

        def wrapper(*args):
            calls[key] += weight(*args)
            return original(*args)

        monkeypatch.setattr(theorems, name, wrapper)

    counted("computed_eulerian", "verdicts")
    counted("lattice_eulerians", "verdicts", lambda n, table, ks: len(ks))
    counted("domination_profile", "profiles")
    report = verify_claim(claim)
    assert calls == {"verdicts": verdicts, "profiles": profiles}
    assert report.instances_checked == instances


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_every_inner_graph_of_one_order_gives_one_corona_table(n):
    """The lemma the corona claims rest on, per inner graph with no chunk: a
    set dominates H o K_1 iff it meets {v, v'} for every inner vertex v, so
    for every labeled H on n <= 5 vertices the corona has the table of n
    disjoint K_2, whatever the inner graph's edges."""
    pairs = [1 << v | 1 << v + n for v in range(n)]
    disjoint_k2 = sum(1 << s for s in range(1 << 2 * n) if all(s & pair for pair in pairs))
    for h in enumerate_labeled_graphs(n):
        assert dominating_table(corona_of(h)) == disjoint_k2, h.adj


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
