"""Reconfiguration module: building, degrees, Eulerian reports, circuits,
Cartesian products."""

import signal
import tracemalloc
from array import array
from collections import Counter
from functools import reduce
from itertools import chain, product

import hypothesis.strategies as st
import networkx as nx
import pytest
from hypothesis import given, settings

from conftest import (
    TEST_TIME_LIMIT,
    NotDominating,
    cartesian_product,
    enumerate_dominating_sets,
    enumerate_labeled_graphs,
    listed_adjacency,
    naive_adjacency,
    naive_dominating_masks,
    naive_reconfig_edges,
    node_degree,
    parity_bipartition_valid,
    reference_euler_circuit,
    reference_eulerian_report,
    seed_graphs,
)
from domrec import (
    EulerReport,
    FamilySpec,
    ReconfigGraph,
    SeedGraph,
    build_reconfig,
    corona_of,
    disjoint_union,
    domination_profile,
    euler_circuit,
    eulerian_report,
    format_set,
    make_family,
)
from domrec.errors import (
    BoundBelowGamma,
    CapacityExceeded,
    DimensionMismatch,
    NoEdges,
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
    adjacency = listed_adjacency(r)
    assert all(len(adjacency[i]) == 2 for i in range(8))
    assert [format_set(s) for s in r.nodes[:4]] == ["{0,2}", "{1,2}", "{0,3}", "{1,3}"]


def test_k13_k3_has_isolated_leaf_set():
    r = build(FamilySpec.star(3), 3)
    leaves = 0b1110
    assert leaves in r.nodes
    assert len(listed_adjacency(r)[r.nodes.index(leaves)]) == 0


def test_c3_k2_all_degree_two():
    r = build(FamilySpec.cycle(3), 2)
    assert r.node_count == 6
    adjacency = listed_adjacency(r)
    assert all(len(adjacency[i]) == 2 for i in range(6))


def test_edges_change_cardinality_by_one():
    r = build(FamilySpec.cycle(5), 4)
    for i, nbrs in enumerate(listed_adjacency(r)):
        for j in nbrs:
            assert abs(r.nodes[i].bit_count() - r.nodes[j].bit_count()) == 1
            assert (r.nodes[i] ^ r.nodes[j]).bit_count() == 1


def test_build_errors(monkeypatch):
    with pytest.raises(BoundBelowGamma):
        build(FamilySpec.path(7), 2)  # gamma(P_7) = 3
    # The node cap guards listings: a D_k past it builds and reports.
    monkeypatch.setattr(reconfig, "DEFAULT_NODE_CAP", 5)
    r = build(FamilySpec.path(6), 6)
    assert eulerian_report(r).node_count > 5
    listings = (lambda: r.nodes, lambda: reconfig_to_csv(r), lambda: reconfig_to_dot(r),
                lambda: euler_circuit(r))
    for listing in listings:
        with pytest.raises(ReconfigTooLarge):
            listing()
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
        adjacency = listed_adjacency(r)
        got = {(i, j) for i, nbrs in enumerate(adjacency) for j in nbrs if i < j}
        assert got == naive_reconfig_edges(masks)
        assert adjacency == naive_adjacency(r)  # each list sorted


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
        adjacency = listed_adjacency(r)
        for i, s in enumerate(r.nodes):
            assert node_degree(g, s, k) == len(adjacency[i])


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
    adjacency = listed_adjacency(r)
    assert rep.edge_count * 2 == sum(len(adjacency[i]) for i in range(r.node_count))


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


def indexed_walk(r):
    """euler_circuit(r) with each node mask turned into its index in
    r.nodes, the form reference_euler_circuit and replay read."""
    index = {s: i for i, s in enumerate(r.nodes)}
    return [index[s] for s in euler_circuit(r)]


def replay(r, walk):
    assert walk[0] == walk[-1]
    assert len(walk) == eulerian_report(r).edge_count + 1
    adjacency = listed_adjacency(r)
    used = Counter()
    for a, b in zip(walk, walk[1:]):
        assert b in adjacency[a]
        used[(min(a, b), max(a, b))] += 1
    assert all(c == 1 for c in used.values())
    assert len(used) == eulerian_report(r).edge_count


@pytest.mark.parametrize(
    "spec,k",
    [(FamilySpec.path(4), 3), (FamilySpec.cycle(3), 2), (FamilySpec.cycle(7), 4)],
)
def test_euler_circuit_replays(spec, k):
    r = build(spec, k)
    replay(r, indexed_walk(r))


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="no SIGALRM to arm")
def test_a_walk_runs_under_the_watchdog():
    """conftest's watchdog has armed the real-time timer, so a walk defect
    that loops for ever fails its test within TEST_TIME_LIMIT seconds."""
    remaining, _ = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < remaining <= TEST_TIME_LIMIT


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
    assert rep == reference_eulerian_report(r)
    assert rep.is_eulerian and rep.edge_count > 0
    assert indexed_walk(r) == reference_euler_circuit(r)


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


def planted(n, masks):
    """The graph on the given vertex masks of n vertices, each a node, two
    adjacent iff they differ in one vertex: a subgraph of the hypercube Q_n
    that no D_k need have."""
    return ReconfigGraph(SeedGraph(n, [0] * n), None, sum(1 << s for s in set(masks)))


def test_two_edged_components_are_not_eulerian():
    # Two disjoint 4-cycles on Q_4: every degree is even, so only the short
    # walk gives the second component away.  No D_k with n <= 6 has this shape.
    r = planted(4, [0b0000, 0b0001, 0b0011, 0b0010, 0b1100, 0b1101, 0b1111, 0b1110])
    rep = eulerian_report(r)
    assert rep.odd_degree_count == 0 and rep.nontrivial_component_count == 2
    with pytest.raises(NotEulerian):
        euler_circuit(r)
    with pytest.raises(NotEulerian):
        reference_euler_circuit(r)


def test_node_set_outside_the_seed_is_rejected():
    with pytest.raises(DimensionMismatch):
        planted(2, [0b100])
    with pytest.raises(DimensionMismatch):
        ReconfigGraph(SeedGraph(2, [0, 0]), None, -1)


def test_isolated_nodes_are_skipped():
    # Nodes 0, 1 and 6 are isolated; 2, 3, 5, 4 is a 4-cycle, which in the
    # (cardinality, mask) order cannot run 2, 3, 4, 5.
    r = planted(5, [0b01000, 0b10000, 0b00011, 0b00111, 0b01011, 0b01111, 0b11110])
    adjacency = listed_adjacency(r)
    assert [len(adjacency[i]) for i in range(7)] == [0, 0, 2, 2, 2, 2, 0]
    assert indexed_walk(r) == [2, 3, 5, 4, 2] == reference_euler_circuit(r)


def test_walk_pops_a_closed_sub_trail_back_past_its_dead_end(monkeypatch):
    """Three 4-cycles of Q_4 hang off one another.  The walk closes
    0-1-3-2 at 0, then 2-6-14-10 at 2, and pops that whole sub-trail, its
    dead end 2 included, down to 1, whose cycle is left.  2's word in the
    table must read empty by then: a stale one resumes the walk at 2 on an
    edge already taken, back and forth for ever.  So no array of the walk
    may outgrow its 12 edges."""
    r = planted(4, [0b0000, 0b0001, 0b0011, 0b0010, 0b0101, 0b1101, 0b1001,
                    0b0110, 0b1110, 0b1010])
    expected = reference_euler_circuit(r)

    class Bounded(array):
        def append(self, s):
            assert len(self) <= 12, "the walk outgrew its edges"
            super().append(s)

    monkeypatch.setattr(reconfig, "array", Bounded)
    walk = euler_circuit(r)
    assert list(walk) == [0, 1, 5, 13, 9, 1, 3, 2, 6, 14, 10, 2, 0]
    assert [r.nodes.index(s) for s in walk] == expected


def test_euler_circuit_needs_no_report(monkeypatch):
    r = build(FamilySpec.cycle(7), 4)
    expected = reference_euler_circuit(r)

    def refuse(*_):
        raise AssertionError("eulerian_report called")

    monkeypatch.setattr(reconfig, "eulerian_report", refuse)
    assert indexed_walk(r) == expected


# --- the report and the walk against independent oracles -------------------


def networkx_report(r):
    """EulerReport of r computed by networkx from its edge list."""
    g = nx.Graph()
    g.add_nodes_from(range(r.node_count))
    g.add_edges_from((i, j) for i, nbrs in enumerate(listed_adjacency(r)) for j in nbrs)
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
    assert rep == networkx_report(r) == reference_eulerian_report(r)
    if rep.is_eulerian and rep.edge_count:
        walk = indexed_walk(r)
        replay(r, walk)
        assert walk == reference_euler_circuit(r)
    else:
        with pytest.raises(NoEdges if rep.is_eulerian else NotEulerian):
            euler_circuit(r)


def test_report_and_walk_match_networkx_on_every_small_labeled_graph():
    """Every labeled seed on up to 5 vertices, disconnected ones included, at
    every k from gamma to n: the report of D_k (degree histogram included)
    and its walk match networkx and the reference report and walk."""
    pairs = 0
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            table = dominating_table(g)
            for k in range(domination_profile(g, table).gamma, n + 1):
                assert_report_and_walk_match_networkx(build_reconfig(g, k, table=table))
                pairs += 1
    assert pairs == 4429


def test_listings_match_the_all_pairs_oracle_on_every_small_labeled_graph():
    """Every labeled seed on up to 5 vertices, at every k from gamma to n:
    the CSV's neighbour ids are the all-pairs oracle's sorted lists, and the
    DOT's edge lines are its pairs i < j, in order."""
    pairs = 0
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            table = dominating_table(g)
            for k in range(domination_profile(g, table).gamma, n + 1):
                r = build_reconfig(g, k, table=table)
                oracle = naive_adjacency(r)
                assert listed_adjacency(r) == oracle
                assert [line for line in reconfig_to_dot(r) if " -- " in line] == [
                    f"  {i} -- {j};\n" for i, nbrs in enumerate(oracle) for j in nbrs if i < j]
                pairs += 1
    assert pairs == 4429


@pytest.mark.parametrize("n, masks, expected", [
    (2, [], EulerReport(0, 0, (), 0, (), 0, 0, True, True)),
    (3, [0b000, 0b011, 0b101], EulerReport(3, 0, ((0, 3),), 0, (), 3, 0, False, True)),
    (4, [0b0001, 0b0011, 0b0101, 0b0111, 0b1010, 0b1100],
     EulerReport(6, 4, ((0, 2), (2, 4)), 0, (), 2, 1, False, True)),
], ids=["no-nodes", "only-isolated", "isolated-and-a-cycle"])
def test_report_of_hand_built_graphs(n, masks, expected):
    r = planted(n, masks)
    assert eulerian_report(r) == expected
    assert_report_and_walk_match_networkx(r)


@st.composite
def node_sets(draw, max_n: int = 7):
    """A planted graph on Q_n, n <= max_n: a random set of vertex masks, or
    a union of subcubes of even dimension (every degree even within one),
    with a few random masks toggled in or out when drawn."""
    n = draw(st.integers(0, max_n))
    full = (1 << n) - 1
    if draw(st.booleans()):
        masks = set(draw(st.lists(st.integers(0, full), max_size=1 << n)))
    else:
        masks = set()
        for _ in range(draw(st.integers(1, 3))):
            free = draw(st.integers(0, full))
            if free.bit_count() % 2:
                free ^= 1 << free.bit_length() - 1  # an even dimension
            base = draw(st.integers(0, full)) & ~free
            sub = free
            while True:
                masks.add(base | sub)
                if not sub:
                    break
                sub = (sub - 1) & free
        masks ^= set(draw(st.lists(st.integers(0, full), max_size=2)))
    return planted(n, masks)


def walk_or_error(walk, r):
    try:
        return list(walk(r))
    except (NotEulerian, NoEdges) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(node_sets())
def test_euler_circuit_matches_reference_on_hand_built_graphs(r):
    assert listed_adjacency(r) == naive_adjacency(r)
    assert eulerian_report(r) == reference_eulerian_report(r)
    assert walk_or_error(indexed_walk, r) == walk_or_error(reference_euler_circuit, r)


@settings(max_examples=40, deadline=None)
@given(seed_graphs(min_n=1, max_n=10))
def test_report_and_walk_match_reference_on_random_seeds(g):
    table = dominating_table(g)
    for k in range(domination_profile(g, table).gamma, g.n + 1):
        r = build_reconfig(g, k, table=table)
        assert eulerian_report(r) == reference_eulerian_report(r)
        assert walk_or_error(indexed_walk, r) == walk_or_error(reference_euler_circuit, r)


def test_euler_circuit_memory_per_edge():
    """The walk is built in its trail's own array: about 5 bytes per edge on
    cocktail:12, 13 when the trail is unwound into a reversed copy."""
    r = build(FamilySpec.cocktail(12), 12)
    tracemalloc.start()
    try:
        euler_circuit(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / r.edge_count < 8


def test_euler_circuit_memory_on_a_sparse_wide_graph():
    # A 4-cycle on Q_20: the moves table takes 4 bytes per subset (n > 16),
    # and its fill holds a plane of one byte per subset twice, since a
    # strided bytearray assignment copies its bytes source (measured: 6.0
    # bytes per subset in all); nothing else grows with 2**n.
    n, width = 20, 4
    r = planted(n, [0b00, 0b01, 0b11, 0b10])
    euler_circuit(r)  # lattice masks of Q_20 cached outside the measured peak
    tracemalloc.start()
    try:
        walk = euler_circuit(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(walk) == [0b00, 0b01, 0b11, 0b10, 0b00]
    assert peak < (width + 2.1) * (1 << n)


# --- cartesian products -----------------------------------------------------


def test_product_with_single_node_factor():
    single = build(FamilySpec.complete(1), 1)  # one node, no edges
    b = build(FamilySpec.path(3), 3)
    prod = cartesian_product(single, b)
    assert prod.node_count == b.node_count
    assert prod.edge_count == b.edge_count
    assert sorted(len(a) for a in listed_adjacency(prod)) == sorted(
        len(a) for a in listed_adjacency(b)
    )


def test_product_node_count_and_degrees():
    p2 = build(FamilySpec.path(2), 2)
    assert p2.node_count == 3  # {0}, {1}, {0,1}
    prod = cartesian_product(p2, p2)
    assert prod.node_count == 9
    degrees = [len(a) for a in listed_adjacency(p2)]
    adjacency = listed_adjacency(prod)
    for i, x in enumerate(p2.nodes):
        for j, y in enumerate(p2.nodes):
            assert len(adjacency[prod.nodes.index(x | y << 2)]) == degrees[i] + degrees[j]


def test_nodes_are_masks_and_product_nodes_pair_them():
    g = make_family(FamilySpec.path(2))
    a = build_reconfig(g, 2)
    assert list(a.nodes) == enumerate_dominating_sets(g, 2) == [0b01, 0b10, 0b11]
    b = build(FamilySpec.cycle(3), 2)
    prod = cartesian_product(a, b)
    pairs = [x | y << 2 for x in a.nodes for y in b.nodes]
    assert list(prod.nodes) == sorted(pairs, key=lambda s: (s.bit_count(), s))


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
            for i, nbrs in enumerate(listed_adjacency(prod)) for j in nbrs} == edges
    assert eulerian_report(prod) == reference_eulerian_report(prod)
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
