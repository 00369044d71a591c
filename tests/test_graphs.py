"""Seed-graph module: families, graph6, recognizers, enumeration."""

import copy
import pickle

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    cartesian_product,
    enumerate_labeled_graphs,
    is_bipartite,
    listed_adjacency,
    seed_graphs,
)
from domrec import (
    FamilySpec,
    SeedGraph,
    build_reconfig,
    connected_components,
    disjoint_union,
    is_cocktail_party,
    make_family,
    parse_graph6,
    to_graph6,
)
from domrec.errors import (
    BoundExceeded,
    CapacityExceeded,
    GraphSpecError,
    InvalidFamilyParameters,
    MalformedGraph6,
)
from domrec.graphs import (
    ARITY,
    HARD_CAP,
    is_connected,
    labeled_graph,
    parse_graph_spec,
)
from domrec.theorems import expected_eulerian_unrestricted


def test_cycle3_is_triangle():
    g = make_family(FamilySpec.cycle(3))
    assert g.n == 3
    assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 2)]
    assert all(g.degree(v) == 2 for v in range(3))


def test_cocktail4_is_k4_minus_matching():
    # K_4 minus the matching {(0,1), (2,3)} leaves a 4-cycle 0-2-1-3-0.
    g = make_family(FamilySpec.cocktail(4))
    assert sorted(g.edges()) == [(0, 2), (0, 3), (1, 2), (1, 3)]
    assert all(g.degree(v) == 2 for v in range(4))
    assert is_connected(g)


def test_corona_of_p2_is_p4_shaped():
    g = make_family(FamilySpec.corona(FamilySpec.path(2)))
    assert g.n == 4
    # pendants 2 and 3 hang off 0 and 1
    assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 3)]


def test_corona_labeling_attaches_pendant_n_plus_i():
    g = make_family(FamilySpec.corona(FamilySpec.cycle(3)))
    assert g.n == 6
    for i in range(3):
        assert g.has_edge(i, 3 + i)
        assert g.degree(3 + i) == 1


def test_turan_balanced_pairs_equals_cocktail():
    assert make_family(FamilySpec.turan(6, 3)) == make_family(FamilySpec.cocktail(6))


def test_turan_sizes_as_equal_as_possible():
    g = make_family(FamilySpec.turan(7, 3))
    # parts {0,1,2}, {3,4}, {5,6}
    assert not g.has_edge(0, 1) and not g.has_edge(3, 4) and not g.has_edge(5, 6)
    assert g.has_edge(0, 3) and g.has_edge(4, 5)


def test_star_is_biclique_one_n():
    assert make_family(FamilySpec.star(5)) == make_family(
        FamilySpec.complete_bipartite(1, 5)
    )


def test_biclique_parts_contiguous():
    g = make_family(FamilySpec.complete_bipartite(2, 3))
    assert not g.has_edge(0, 1) and not g.has_edge(2, 3)
    assert all(g.has_edge(u, v) for u in (0, 1) for v in (2, 3, 4))


def test_disjoint_union_offsets_second_component():
    g = make_family(
        FamilySpec.disjoint_union(FamilySpec.path(2), FamilySpec.cycle(3))
    )
    assert g.n == 5
    assert connected_components(g) == [0b00011, 0b11100]


#: (spec, the InvalidFamilyParameters message make_family raises).
INVALID_FAMILIES = [
    (FamilySpec.path(0), "path needs n >= 1, got 0"),
    (FamilySpec.cycle(2), "cycle needs n >= 3, got 2"),
    (FamilySpec.complete(0), "complete needs n >= 1, got 0"),
    (FamilySpec.complete_bipartite(0, 3), "biclique needs m, n >= 1, got 0, 3"),
    (FamilySpec.cocktail(5), "cocktail needs even n >= 4, got 5"),
    (FamilySpec.cocktail(2), "cocktail needs even n >= 4, got 2"),
    (FamilySpec.turan(3, 4), "turan needs n >= r >= 1, got 3, 4"),
    (FamilySpec.corona(FamilySpec.path(1)), "corona needs an inner graph on >= 2 vertices, got 1"),
    (FamilySpec("nope"), "unknown family kind 'nope'"),
]


# The ids are those pytest gives the spec part of each case.
@pytest.mark.parametrize("spec, message", INVALID_FAMILIES,
                         ids=[f"spec{i}" for i in range(len(INVALID_FAMILIES))])
def test_family_parameter_validation(spec, message):
    with pytest.raises(InvalidFamilyParameters) as exc:
        make_family(spec)
    assert str(exc.value) == message


def test_capacity_cap_on_families():
    with pytest.raises(CapacityExceeded):
        make_family(FamilySpec.path(27))
    with pytest.raises(CapacityExceeded):
        make_family(FamilySpec.corona(FamilySpec.path(14)))


def test_seed_graph_validation():
    with pytest.raises(ValueError):
        SeedGraph(2, [0b10, 0b00])  # asymmetric
    with pytest.raises(ValueError):
        SeedGraph(2, [0b01, 0b10])  # self-loops
    with pytest.raises(ValueError):
        SeedGraph(2, [0b100, 0b000])  # out of range
    with pytest.raises(CapacityExceeded):
        SeedGraph(27, [0] * 27)
    for build, message in [
        (lambda: SeedGraph(-1, []), "vertex count must be non-negative, got -1"),
        (lambda: SeedGraph(2, [0]), "expected 2 adjacency masks, got 1"),
        (lambda: SeedGraph.from_edges(3, [(0, 3)]), "bad edge (0, 3) for n=3"),
    ]:
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message


# --- graph6 ---------------------------------------------------------------


def test_graph6_decode_known_records():
    p2 = parse_graph6("A_")
    assert p2.n == 2 and p2.edges() == [(0, 1)]
    empty = parse_graph6("?")
    assert empty.n == 0
    assert parse_graph6(">>graph6<<A_") == p2


def test_graph6_malformed():
    with pytest.raises(MalformedGraph6):
        parse_graph6("B")  # truncated: n=3 needs one data character
    with pytest.raises(MalformedGraph6):
        parse_graph6("A_~")  # trailing junk
    with pytest.raises(MalformedGraph6):
        parse_graph6("A" + chr(50))  # character below the printable offset
    with pytest.raises(MalformedGraph6):
        parse_graph6("")
    with pytest.raises(CapacityExceeded):
        parse_graph6(chr(126) + "???")  # long-form vertex count


@settings(max_examples=150)
@given(seed_graphs(max_n=7))
def test_graph6_round_trip(g):
    assert parse_graph6(to_graph6(g)) == g


@settings(max_examples=150)
@given(seed_graphs(max_n=7))
def test_graph6_matches_networkx(g):
    # networkx is the independent decoder for our encoder's output.
    h = nx.from_graph6_bytes(to_graph6(g).encode())
    assert set(h.nodes) == set(range(g.n))
    assert {tuple(sorted(e)) for e in h.edges} == set(g.edges())


def test_graph6_round_trip_families_up_to_cap():
    specs = []
    specs += [FamilySpec.path(n) for n in range(1, 27)]
    specs += [FamilySpec.cycle(n) for n in range(3, 27)]
    specs += [FamilySpec.complete(n) for n in range(1, 21)]
    specs += [FamilySpec.cocktail(n) for n in range(4, 27, 2)]
    specs += [FamilySpec.star(n) for n in range(1, 26)]
    specs += [FamilySpec.complete_bipartite(m, 13) for m in range(1, 14)]
    specs += [FamilySpec.turan(n, 3) for n in range(3, 27)]
    specs += [FamilySpec.corona(FamilySpec.cycle(n)) for n in range(3, 14)]
    specs.append(FamilySpec.disjoint_union(FamilySpec.path(12), FamilySpec.cycle(14)))
    for spec in specs:
        g = make_family(spec)
        assert parse_graph6(to_graph6(g)) == g


# --- recognizers ----------------------------------------------------------


def test_cocktail_recognizer_on_families():
    for n in range(4, 13, 2):
        assert is_cocktail_party(make_family(FamilySpec.cocktail(n)))
    assert is_cocktail_party(make_family(FamilySpec.cycle(4)))  # C_4 = K_4 - matching
    assert not is_cocktail_party(make_family(FamilySpec.complete(4)))
    assert not is_cocktail_party(make_family(FamilySpec.path(4)))
    assert not is_cocktail_party(make_family(FamilySpec.cycle(6)))
    assert not is_cocktail_party(make_family(FamilySpec.complete(3)))


def test_bipartite_recognizer():
    assert is_bipartite(make_family(FamilySpec.path(5)))
    assert is_bipartite(make_family(FamilySpec.cycle(4)))
    assert not is_bipartite(make_family(FamilySpec.cycle(5)))
    assert is_bipartite(SeedGraph(3, [0, 0, 0]))


# --- components -----------------------------------------------------------


def test_components_basic():
    assert connected_components(make_family(FamilySpec.path(4))) == [0b1111]
    assert connected_components(SeedGraph(3, [0, 0, 0])) == [0b001, 0b010, 0b100]


@settings(max_examples=80)
@given(seed_graphs(max_n=5), seed_graphs(max_n=5))
def test_union_component_count_adds(a, b):
    u = disjoint_union([a, b])
    assert len(connected_components(u)) == len(connected_components(a)) + len(
        connected_components(b)
    )


@settings(max_examples=80)
@given(seed_graphs(max_n=6))
def test_components_partition_and_are_maximal(g):
    blocks = connected_components(g)
    assert sum(blocks) == (1 << g.n) - 1 and sum(b.bit_count() for b in blocks) == g.n
    lowest = [(b & -b).bit_length() for b in blocks]
    assert lowest == sorted(lowest)
    for block in blocks:
        for v in range(g.n):
            if (block >> v) & 1:
                # no edge leaves the block
                assert g.adj[v] & ~block == 0


# --- enumeration ----------------------------------------------------------


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_labeled_graphs(2)) == 2
    assert sum(1 for _ in enumerate_labeled_graphs(3)) == 8
    assert sum(1 for _ in enumerate_labeled_graphs(4)) == 64


def test_enumeration_connected_count_matches_networkx():
    # independent connectivity oracle over all 64 labeled graphs on 4 vertices
    expected = 0
    for g in enumerate_labeled_graphs(4):
        h = nx.Graph()
        h.add_nodes_from(range(4))
        h.add_edges_from(g.edges())
        if nx.is_connected(h):
            expected += 1
    assert expected == 38
    assert sum(map(is_connected, enumerate_labeled_graphs(4))) == 38


def test_enumeration_yields_valid_unique_graphs():
    seen = set()
    for g in enumerate_labeled_graphs(4):
        SeedGraph(g.n, g.adj)  # re-validate invariants
        seen.add(g.adj)
    assert len(seen) == 64


def test_labeled_graph_decodes_the_lexicographic_pair_order():
    for n in range(1, 6):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        enumerated = list(enumerate_labeled_graphs(n))
        assert len(enumerated) == 1 << len(pairs)
        for mask, g in enumerate(enumerated):
            decoded = labeled_graph(n, mask)
            assert decoded.edges() == [p for i, p in enumerate(pairs) if mask >> i & 1]
            assert decoded.adj == g.adj and to_graph6(decoded) == to_graph6(g)
        for mask in (-1, 1 << len(pairs)):
            with pytest.raises(ValueError):
                labeled_graph(n, mask)


def test_enumeration_bound():
    with pytest.raises(BoundExceeded):
        list(enumerate_labeled_graphs(8))
    with pytest.raises(BoundExceeded):
        list(enumerate_labeled_graphs(0))


# --- spec grammar ---------------------------------------------------------


@st.composite
def family_specs(draw, budget=HARD_CAP, depth=3):
    """(FamilySpec, order) of any kind in its valid range, order <= budget;
    coronas and unions nest in each other to the given depth."""
    kinds = ["path", "complete", "turan"]
    kinds += ["complete_bipartite", "star"] * (budget >= 2) + ["cycle"] * (budget >= 3)
    kinds += ["cocktail"] * (budget >= 4)
    if depth:
        kinds += ["corona"] * (budget >= 4) + ["disjoint_union"] * (budget >= 2)
    kind = draw(st.sampled_from(kinds))
    size = st.integers
    if kind == "complete_bipartite":
        m = draw(size(1, budget - 1))
        n = draw(size(1, budget - m))
        return FamilySpec.complete_bipartite(m, n), m + n
    if kind == "star":
        n = draw(size(1, budget - 1))
        return FamilySpec.star(n), n + 1
    if kind == "turan":
        n = draw(size(1, budget))
        return FamilySpec.turan(n, draw(size(1, n))), n
    if kind == "corona":
        inner, order = draw(
            family_specs(budget // 2, depth - 1).filter(lambda so: so[1] >= 2)
        )
        return FamilySpec.corona(inner), 2 * order
    if kind == "disjoint_union":
        count = draw(size(2, min(3, budget)))
        parts, total = [], 0
        for i in range(count):
            part, order = draw(
                family_specs(budget - total - (count - 1 - i), depth - 1)
            )
            parts.append(part)
            total += order
        return FamilySpec.disjoint_union(*parts), total
    low = {"cycle": 3, "cocktail": 4}.get(kind, 1)
    n = draw(size(low, budget))
    if kind == "cocktail":
        n -= n % 2
    return FamilySpec(kind, (n,)), n


@settings(max_examples=200)
@given(family_specs())
def test_spec_string_parses_back_to_its_family(spec_and_order):
    spec, order = spec_and_order
    text = spec.spec_string()
    g, parsed = parse_graph_spec(text)
    assert parsed == spec
    assert g == make_family(spec)
    assert g.n == order
    assert g.name == make_family(spec).name == text


@pytest.mark.parametrize("text,order", [
    ("union:path:1+(union:path:1+path:1)", 3),
    ("union:(corona:union:path:2+path:1)+path:3", 9),
])
def test_nested_unions_round_trip(text, order):
    g, spec = parse_graph_spec(text)
    assert spec.spec_string() == g.name == text
    assert g == make_family(spec) and g.n == order


def test_spec_errors_inside_parentheses_carry_positions():
    cases = {
        "union:path:1+(union:path:1+pth:1)": 27,
        "union:path:1+(path:x)": 19,
        "union:()+path:1": 7,
        "union:(path:1+path:1": 6,
        "union:path:1)+path:1": 12,
    }
    for text, position in cases.items():
        with pytest.raises(GraphSpecError) as exc:
            parse_graph_spec(text)
        assert exc.value.position == position, text


@pytest.mark.parametrize("kind", sorted(ARITY))
def test_wrong_argument_count_is_invalid_parameters(kind):
    arity = ARITY[kind]
    for count in sorted({0, arity - 1, arity + 1} - {arity}):
        with pytest.raises(InvalidFamilyParameters, match="argument"):
            make_family(FamilySpec(kind, (3,) * count))


def test_corona_without_inner_family_is_invalid_parameters():
    with pytest.raises(InvalidFamilyParameters):
        make_family(FamilySpec("corona"))
    with pytest.raises(InvalidFamilyParameters):
        make_family(FamilySpec("corona", (), (FamilySpec.path(2),) * 2))


def test_biclique_is_the_text_name_of_complete_bipartite():
    assert FamilySpec.complete_bipartite(3, 4).spec_string() == "biclique:3,4"
    for text in ("biclique:3,4", "complete_bipartite:3,4"):
        g, spec = parse_graph_spec(text)
        assert spec == FamilySpec.complete_bipartite(3, 4)
        assert g.name == "biclique:3,4"
    with pytest.raises(InvalidFamilyParameters, match="biclique takes 2 argument"):
        make_family(FamilySpec("complete_bipartite", (3,)))


@pytest.mark.parametrize("text", [
    "g6:A_", "union:g6:A_+path:2", "corona:g6:A_", "corona:union:path:2+g6:A_",
])
def test_seeds_with_g6_parts_are_named_by_their_spec(text):
    g, spec = parse_graph_spec(text)
    assert spec is None
    assert g.name == text


def _round_trips(x):
    return [pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)]


def test_seeds_and_reconfig_graphs_pickle_and_copy():
    g = make_family(FamilySpec.cocktail(6))
    for h in _round_trips(g):
        assert h == g and hash(h) == hash(g)
        assert (h.n, h.adj, h.name) == (6, g.adj, "cocktail:6")
        assert type(h.adj) is tuple
    path = make_family(FamilySpec.path(3))
    dk = build_reconfig(g, 3)
    product = cartesian_product(build_reconfig(path, 2), dk)
    for r in (dk, product):
        for h in _round_trips(r):
            assert (h.seed, h.k, h.nodes, listed_adjacency(h)) == (
                r.seed, r.k, r.nodes, listed_adjacency(r))
            assert h.seed.name == r.seed.name
    assert dk.seed.name == "cocktail:6"


def test_seeds_are_values_named_apart_from_equality():
    a = SeedGraph(3, [0b010, 0b101, 0b010], name="path:3")
    b = SeedGraph(3, (0b010, 0b101, 0b010), name="other")
    c = SeedGraph(3, [0b010, 0b101, 0b010])
    assert a == b == c and hash(a) == hash(b) == hash(c)
    assert len({a, b, c}) == 1
    assert a != SeedGraph(3, [0b110, 0b101, 0b011])
    assert a != SeedGraph(4, [0b010, 0b101, 0b010, 0])
    assert a != (3, (0b010, 0b101, 0b010))
    for field, value in (("n", 4), ("adj", ()), ("name", "x")):
        with pytest.raises(AttributeError):
            setattr(a, field, value)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert (a.n, a.adj, a.name) == (3, (0b010, 0b101, 0b010), "path:3")


def test_seeds_refuse_attribute_deletion():
    a = SeedGraph(3, [0b010, 0b101, 0b010], name="path:3")
    for field in ("n", "adj", "name", "extra"):
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert (a.n, a.adj, a.name) == (3, (0b010, 0b101, 0b010), "path:3")


def _nx_graph(g: SeedGraph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def _nx_is_cocktail_party(h: nx.Graph) -> bool:
    """Isomorphic to K_{2,...,2} with at least two parts."""
    n = h.number_of_nodes()
    return (n >= 4 and n % 2 == 0
            and nx.is_isomorphic(h, nx.complete_multipartite_graph(*[2] * (n // 2))))


def _assert_cocktail_rules_match_networkx(g: SeedGraph):
    h = _nx_graph(g)
    assert is_cocktail_party(g) == _nx_is_cocktail_party(h), g.edges()
    expected = all(len(c) == 1 or _nx_is_cocktail_party(h.subgraph(c))
                   for c in nx.connected_components(h))
    assert expected_eulerian_unrestricted(g) == expected, g.edges()


def test_cocktail_rules_match_networkx_on_every_small_labeled_graph():
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            _assert_cocktail_rules_match_networkx(g)


@st.composite
def shuffled_unions(draw):
    """Disjoint unions of small graphs and cocktail party graphs, vertices
    relabeled by a random permutation so that no component is a range."""
    parts = draw(st.lists(
        st.one_of(seed_graphs(max_n=4),
                  st.sampled_from([4, 6, 8]).map(lambda n: make_family(FamilySpec.cocktail(n)))),
        min_size=1, max_size=3,
    ))
    g = disjoint_union(parts) if len(parts) > 1 else parts[0]
    perm = draw(st.permutations(range(g.n)))
    return SeedGraph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@settings(max_examples=150, deadline=None)
@given(shuffled_unions())
def test_cocktail_rules_match_networkx_on_disjoint_unions(g):
    _assert_cocktail_rules_match_networkx(g)


def _multipartite_specs():
    """(spec, part sizes) for every complete multipartite kind with n <= 12,
    the sizes stated apart from the builder: a Turan part i holds the
    vertices congruent to i mod r, counted."""
    for n in range(1, 13):
        yield FamilySpec.complete(n), [1] * n
        if n >= 2:
            yield FamilySpec.star(n - 1), [1, n - 1]
        if n >= 4 and n % 2 == 0:
            yield FamilySpec.cocktail(n), [2] * (n // 2)
        for m in range(1, n):
            yield FamilySpec.complete_bipartite(m, n - m), [m, n - m]
        for r in range(1, n + 1):
            yield FamilySpec.turan(n, r), [len(range(i, n, r)) for i in range(r)]


def test_multipartite_families_match_networkx():
    count = 0
    for spec, sizes in _multipartite_specs():
        g = make_family(spec)
        want = nx.complete_multipartite_graph(*sizes)
        assert g.n == want.number_of_nodes(), spec
        assert set(g.edges()) == {tuple(sorted(e)) for e in want.edges()}, spec
        count += 1
    assert count == 12 + 11 + 5 + 66 + 78
