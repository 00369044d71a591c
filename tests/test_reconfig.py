"""Reconfiguration module: building, degrees, Eulerian reports, circuits,
Cartesian products."""

import tracemalloc
from collections import Counter
from functools import reduce
from itertools import chain, combinations, product

import hypothesis.strategies as st
import networkx as nx
import pytest
from hypothesis import given, settings

from conftest import (
    naive_dominating_masks,
    naive_reconfig_edges,
    reference_euler_circuit,
    seed_graphs,
)
from domrec import (
    EulerReport,
    FamilySpec,
    ReconfigGraph,
    build_reconfig,
    cartesian_product,
    corona_of,
    disjoint_union,
    domination_profile,
    enumerate_dominating_sets,
    enumerate_labeled_graphs,
    euler_circuit,
    eulerian_report,
    format_set,
    make_family,
    node_degree,
    parity_bipartition_valid,
)
from domrec.errors import (
    BoundBelowGamma,
    CapacityExceeded,
    NoEdges,
    NotDominating,
    NotEulerian,
    ReconfigTooLarge,
)
from domrec import reconfig
from domrec.domination import dominating_table
from domrec.reconfig import reconfig_to_csv, reconfig_to_dot


def build(spec, k):
    return build_reconfig(make_family(spec), k)


def test_d3_p4_structure():
    r = build(FamilySpec.path(4), 3)
    assert r.node_count == 8
    assert r.edge_count == 8
    assert all(r.degree(i) == 2 for i in range(8))
    assert [format_set(s) for s in r.nodes[:4]] == ["{0,2}", "{1,2}", "{0,3}", "{1,3}"]


def test_k13_k3_has_isolated_leaf_set():
    r = build(FamilySpec.star(3), 3)
    leaves = 0b1110
    assert leaves in r.nodes
    assert r.degree(r.nodes.index(leaves)) == 0


def test_c3_k2_all_degree_two():
    r = build(FamilySpec.cycle(3), 2)
    assert r.node_count == 6
    assert all(r.degree(i) == 2 for i in range(6))


def test_edges_change_cardinality_by_one():
    r = build(FamilySpec.cycle(5), 4)
    for i, nbrs in enumerate(r.adjacency):
        for j in nbrs:
            assert abs(r.nodes[i].bit_count() - r.nodes[j].bit_count()) == 1
            assert (r.nodes[i] ^ r.nodes[j]).bit_count() == 1


def test_build_errors():
    with pytest.raises(BoundBelowGamma):
        build(FamilySpec.path(7), 2)  # gamma(P_7) = 3
    with pytest.raises(ReconfigTooLarge):
        build_reconfig(make_family(FamilySpec.path(6)), 6, node_cap=5)
    with pytest.raises(ValueError):
        build(FamilySpec.path(3), 4)


def test_k_equals_gamma_is_edgeless():
    r = build(FamilySpec.cocktail(6), 2)
    assert r.node_count == 15 and r.edge_count == 0
    rep = eulerian_report(r)
    assert rep.is_eulerian  # no odd degrees, zero non-trivial components
    assert rep.isolated_count == 15 and rep.nontrivial_component_count == 0


@settings(max_examples=60, deadline=None)
@given(seed_graphs(min_n=1, max_n=6))
def test_build_matches_all_pairs_oracle(g):
    gamma = domination_profile(g).gamma
    for k in (gamma, (gamma + g.n) // 2, g.n):
        r = build_reconfig(g, k)
        masks = r.nodes
        assert sorted(masks) == sorted(naive_dominating_masks(g, k))
        got = {(i, j) for i, nbrs in enumerate(r.adjacency) for j in nbrs if i < j}
        assert got == naive_reconfig_edges(masks)


# --- node_degree ----------------------------------------------------------


def test_node_degree_full_set():
    for spec in [FamilySpec.path(5), FamilySpec.cycle(6), FamilySpec.complete(4)]:
        g = make_family(spec)
        assert node_degree(g, (1 << g.n) - 1, g.n) == g.n


def test_node_degree_examples():
    c9 = make_family(FamilySpec.cycle(9))
    s = 0b010010010  # {1,4,7}, a minimum dominating set of C_9
    assert node_degree(c9, s, 5) == 6  # 9 - ceil(9/3)
    h8 = make_family(FamilySpec.cocktail(8))
    assert node_degree(h8, 0b101, 8) == 6  # n - 2


def test_node_degree_errors():
    g = make_family(FamilySpec.path(4))
    with pytest.raises(NotDominating):
        node_degree(g, 0b0001, 3)
    with pytest.raises(ValueError):
        node_degree(g, 0b0111, 2)


@settings(max_examples=60, deadline=None)
@given(seed_graphs(min_n=1, max_n=6))
def test_node_degree_agrees_with_materialized(g):
    gamma = domination_profile(g).gamma
    for k in (gamma, g.n):
        r = build_reconfig(g, k)
        for i, s in enumerate(r.nodes):
            assert node_degree(g, s, k) == r.degree(i)


# --- eulerian_report ------------------------------------------------------


def test_euler_reports_for_known_instances():
    assert eulerian_report(build(FamilySpec.path(4), 3)).is_eulerian
    rep = eulerian_report(build(FamilySpec.cycle(4), 3))
    assert not rep.is_eulerian
    assert 0b0111 in rep.odd_degree_nodes
    rep7 = eulerian_report(build(FamilySpec.cycle(7), 4))
    assert rep7.is_eulerian
    assert rep7.node_count == 42 and rep7.edge_count == 56


def test_euler_report_edge_count_is_half_degree_sum():
    r = build(FamilySpec.complete(5), 3)
    rep = eulerian_report(r)
    assert rep.edge_count * 2 == sum(r.degree(i) for i in range(r.node_count))


def test_isolated_node_tolerated():
    # both partite sets of K_{3,3} are isolated nodes at k=3, yet the rest is
    # a single all-even component, so the relaxed criterion holds
    rep = eulerian_report(build(FamilySpec.star(6), 3))
    assert rep.is_eulerian
    rep2 = eulerian_report(build(FamilySpec.complete_bipartite(3, 3), 3))
    assert rep2.isolated_count == 2
    assert rep2.nontrivial_component_count == 1
    assert rep2.is_eulerian
    assert not rep2.is_connected


def test_k_equals_n_connected_and_odd_order():
    for spec in [FamilySpec.path(5), FamilySpec.cycle(6), FamilySpec.star(4)]:
        g = make_family(spec)
        rep = eulerian_report(build_reconfig(g, g.n))
        assert rep.is_connected
        assert rep.node_count % 2 == 1


# --- euler_circuit ----------------------------------------------------------


def replay(r, walk):
    assert walk[0] == walk[-1]
    assert len(walk) == eulerian_report(r).edge_count + 1
    used = Counter()
    for a, b in zip(walk, walk[1:]):
        assert b in r.adjacency[a]
        used[(min(a, b), max(a, b))] += 1
    assert all(c == 1 for c in used.values())
    assert len(used) == eulerian_report(r).edge_count


@pytest.mark.parametrize(
    "spec,k",
    [(FamilySpec.path(4), 3), (FamilySpec.cycle(3), 2), (FamilySpec.cycle(7), 4)],
)
def test_euler_circuit_replays(spec, k):
    r = build(spec, k)
    replay(r, euler_circuit(r))


def test_euler_circuit_deterministic():
    r = build(FamilySpec.cycle(7), 4)
    assert euler_circuit(r) == euler_circuit(r)


def test_euler_circuit_errors():
    with pytest.raises(NotEulerian):
        euler_circuit(build(FamilySpec.cycle(4), 3))
    with pytest.raises(NoEdges):
        euler_circuit(build(FamilySpec.cocktail(6), 2))


# Every Eulerian D_k with edges that the claim catalog names, within sizes the
# tuple-set oracle walks quickly: cocktail parties at even k and at k = n,
# odd complete graphs at k = 2, and the three path/cycle instances.
EULERIAN_FAMILIES = [
    *((FamilySpec.cocktail(n), k) for n in (4, 6, 8, 10) for k in (*range(4, n, 2), n)),
    *((FamilySpec.complete(n), 2) for n in (3, 5, 7, 9, 11)),
    (FamilySpec.path(4), 3),
    (FamilySpec.cycle(3), 2),
    (FamilySpec.cycle(7), 4),
]


def assert_matches_reference(r):
    rep = eulerian_report(r)
    assert rep.is_eulerian and rep.edge_count > 0
    assert euler_circuit(r) == reference_euler_circuit(r)


@pytest.mark.parametrize(
    "spec,k", EULERIAN_FAMILIES, ids=[f"{s.spec_string()}-k{k}" for s, k in EULERIAN_FAMILIES]
)
def test_euler_circuit_matches_reference_on_families(spec, k):
    assert_matches_reference(build(spec, k))


def test_euler_circuit_matches_reference_on_coronas():
    inners = chain(enumerate_labeled_graphs(2), enumerate_labeled_graphs(4))
    for inner in inners:
        assert_matches_reference(build_reconfig(corona_of(inner), inner.n + 1))


def test_euler_circuit_matches_reference_on_a_product():
    prod = cartesian_product(build(FamilySpec.path(4), 3), build(FamilySpec.cycle(3), 2))
    assert_matches_reference(prod)


def hand_built(adjacency):
    return ReconfigGraph(None, None, list(range(len(adjacency))), adjacency)


def test_two_edged_components_are_not_eulerian():
    # Two disjoint 4-cycles: every degree is even, so only the short walk
    # gives the second component away.
    r = hand_built([[1, 3], [0, 2], [1, 3], [0, 2], [5, 7], [4, 6], [5, 7], [4, 6]])
    with pytest.raises(NotEulerian):
        euler_circuit(r)
    with pytest.raises(NotEulerian):
        reference_euler_circuit(r)


def test_isolated_nodes_are_skipped():
    r = hand_built([[], [], [3, 5], [2, 4], [3, 5], [2, 4], []])
    assert euler_circuit(r) == [2, 3, 4, 5, 2] == reference_euler_circuit(r)


def test_euler_circuit_needs_no_report(monkeypatch):
    r = build(FamilySpec.cycle(7), 4)
    expected = reference_euler_circuit(r)

    def refuse(*_):
        raise AssertionError("eulerian_report called")

    monkeypatch.setattr(reconfig, "eulerian_report", refuse)
    assert euler_circuit(r) == expected


# --- the report and the walk against independent oracles -------------------


def networkx_report(r):
    """EulerReport of r computed by networkx from its edge list."""
    g = nx.Graph()
    g.add_nodes_from(range(r.node_count))
    g.add_edges_from((i, j) for i, nbrs in enumerate(r.adjacency) for j in nbrs)
    odd = [v for v in range(r.node_count) if g.degree(v) % 2]
    components = list(nx.connected_components(g))
    nontrivial = sum(len(c) > 1 for c in components)
    return EulerReport(
        node_count=g.number_of_nodes(),
        edge_count=g.number_of_edges(),
        degree_histogram=tuple((d, c) for d, c in enumerate(nx.degree_histogram(g)) if c),
        odd_degree_count=len(odd),
        odd_degree_nodes=tuple(r.nodes[v] for v in odd[: reconfig.ODD_WITNESS_CAP]),
        isolated_count=nx.number_of_isolates(g),
        nontrivial_component_count=nontrivial,
        is_connected=len(components) <= 1,
        is_eulerian=not odd and nontrivial <= 1,
    )


def assert_report_and_walk_match_networkx(r):
    rep = eulerian_report(r)
    assert rep == networkx_report(r)
    if rep.is_eulerian and rep.edge_count:
        replay(r, euler_circuit(r))
    else:
        with pytest.raises(NoEdges if rep.is_eulerian else NotEulerian):
            euler_circuit(r)


def test_report_and_walk_match_networkx_on_every_small_labeled_graph():
    """Every labeled seed on up to 5 vertices, disconnected ones included, at
    every k from gamma to n: the report of D_k (degree histogram included)
    and its walk match networkx."""
    pairs = 0
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            table = dominating_table(g)
            for k in range(domination_profile(g, table).gamma, n + 1):
                assert_report_and_walk_match_networkx(build_reconfig(g, k, table=table))
                pairs += 1
    assert pairs == 4429


@pytest.mark.parametrize("adjacency, expected", [
    ([], EulerReport(0, 0, (), 0, (), 0, 0, True, True)),
    ([[], [], []], EulerReport(3, 0, ((0, 3),), 0, (), 3, 0, False, True)),
    ([[], [2, 4], [1, 3], [2, 4], [1, 3], []],
     EulerReport(6, 4, ((0, 2), (2, 4)), 0, (), 2, 1, False, True)),
], ids=["no-nodes", "only-isolated", "isolated-and-a-cycle"])
def test_report_of_hand_built_graphs(adjacency, expected):
    r = hand_built(adjacency)
    assert eulerian_report(r) == expected
    assert_report_and_walk_match_networkx(r)


@st.composite
def simple_graphs(draw, max_n: int = 10):
    """Sorted adjacency lists of a random simple graph; when drawn, its odd
    nodes are paired off in order and each pair's edge toggled, leaving every
    degree even."""
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    edges = {p for i, p in enumerate(pairs) if (mask >> i) & 1}
    if draw(st.booleans()):
        odd = [v for v in range(n) if sum(v in e for e in edges) % 2]
        edges ^= set(zip(odd[::2], odd[1::2]))
    adjacency = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    return [sorted(a) for a in adjacency]


def walk_or_error(walk, r):
    try:
        return walk(r)
    except (NotEulerian, NoEdges) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(simple_graphs())
def test_euler_circuit_matches_reference_on_hand_built_graphs(adjacency):
    r = hand_built(adjacency)
    assert walk_or_error(euler_circuit, r) == walk_or_error(reference_euler_circuit, r)


def test_euler_circuit_memory_per_edge():
    r = build(FamilySpec.cocktail(12), 12)
    tracemalloc.start()
    try:
        euler_circuit(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / r.edge_count < 48


# --- cartesian products -----------------------------------------------------


def test_product_with_single_node_factor():
    single = build(FamilySpec.complete(1), 1)  # one node, no edges
    b = build(FamilySpec.path(3), 3)
    prod = cartesian_product(single, b)
    assert prod.node_count == b.node_count
    assert prod.edge_count == b.edge_count
    assert sorted(len(a) for a in prod.adjacency) == sorted(
        len(a) for a in b.adjacency
    )


def test_product_node_count_and_degrees():
    p2 = build(FamilySpec.path(2), 2)
    assert p2.node_count == 3  # {0}, {1}, {0,1}
    prod = cartesian_product(p2, p2)
    assert prod.node_count == 9
    for i in range(3):
        for j in range(3):
            assert prod.degree(i * 3 + j) == p2.degree(i) + p2.degree(j)


def test_nodes_are_masks_and_product_nodes_pair_them():
    g = make_family(FamilySpec.path(2))
    a = build_reconfig(g, 2)
    assert a.nodes == enumerate_dominating_sets(g, 2) == [0b01, 0b10, 0b11]
    b = build(FamilySpec.cycle(3), 2)
    prod = cartesian_product(a, b)
    assert prod.nodes == [x | y << 2 for x in a.nodes for y in b.nodes]


def assert_product_is_union_dk(parts):
    """The product of the parts' D(G) is D of their union, node for node and
    edge for edge, checked against the naive oracles."""
    prod = reduce(cartesian_product, [build_reconfig(p, p.n) for p in parts])
    union = disjoint_union(parts)
    assert prod.seed == union and prod.k is None
    masks = naive_dominating_masks(union, union.n)
    assert sorted(prod.nodes) == sorted(masks)
    edges = {frozenset((masks[i], masks[j])) for i, j in naive_reconfig_edges(masks)}
    assert {frozenset((prod.nodes[i], prod.nodes[j]))
            for i, nbrs in enumerate(prod.adjacency) for j in nbrs} == edges
    return prod


def test_product_nodes_are_the_union_dominating_sets():
    small = [g for n in (1, 2, 3) for g in enumerate_labeled_graphs(n)]
    for a, b in product(small, repeat=2):
        assert_product_is_union_dk([a, b])
    parts = [make_family(FamilySpec.path(3)), make_family(FamilySpec.cycle(3)),
             make_family(FamilySpec.path(2))]
    assert_product_is_union_dk(parts)


def test_product_accepts_seed_graph_operations():
    parts = [make_family(FamilySpec.path(2)), make_family(FamilySpec.cycle(3))]
    prod = assert_product_is_union_dk(parts)
    assert parity_bipartition_valid(prod)
    dot = "".join(reconfig_to_dot(prod, label_style="bits"))
    assert [f'  {i} [label="{s:05b}"];' for i, s in enumerate(prod.nodes)] == [
        line for line in dot.splitlines() if "label=" in line]
    assert dot.count(" -- ") == prod.edge_count


def test_product_cap():
    big = build(FamilySpec.complete(5), 5)
    with pytest.raises(ReconfigTooLarge):
        cartesian_product(big, big, node_cap=10)


def test_product_seed_over_the_vertex_cap():
    wide = build(FamilySpec.complete(14), 1)  # 14 nodes on 14 vertices
    with pytest.raises(ReconfigTooLarge):
        cartesian_product(wide, wide, node_cap=10)  # the node cap is checked first
    with pytest.raises(CapacityExceeded):
        cartesian_product(wide, wide)


def test_product_over_the_vertex_cap_raises_the_seed_error():
    """ReconfigTooLarge is a CapacityExceeded too, so the class is pinned."""
    wide = build(FamilySpec.complete(14), 1)
    with pytest.raises(CapacityExceeded) as excinfo:
        cartesian_product(wide, wide)
    assert type(excinfo.value) is CapacityExceeded


def test_parity_bipartition():
    assert parity_bipartition_valid(build(FamilySpec.path(4), 4))
    assert parity_bipartition_valid(build(FamilySpec.cycle(7), 4))
    k33 = build(FamilySpec.complete_bipartite(3, 3), 6)
    assert parity_bipartition_valid(k33)
    assert k33.node_count == 51 and k33.node_count % 2 == 1
    a = build(FamilySpec.path(2), 2)
    assert parity_bipartition_valid(cartesian_product(a, a))


# --- exports ----------------------------------------------------------------


def test_dot_and_csv_exports():
    r = build(FamilySpec.path(4), 3)
    dot = "".join(reconfig_to_dot(r))
    assert 'label="{0,2}"' in dot and dot.count(" -- ") == r.edge_count
    bits = "".join(reconfig_to_dot(r, label_style="bits"))
    assert 'label="0101"' in bits
    csv_text = "".join(reconfig_to_csv(r))
    lines = csv_text.strip().split("\n")
    assert lines[0] == "node_id,neighbor_ids"
    assert len(lines) == 1 + r.node_count
