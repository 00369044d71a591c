"""Domination module: predicates, enumeration, profiles."""

import random
import sys
import tracemalloc
from math import comb

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import (
    bytewise_dominating_table,
    dominating_pair_counts,
    enumerate_dominating_sets,
    enumerate_labeled_graphs,
    is_bipartite,
    is_dominating,
    is_minimal_dominating,
    naive_dominating_masks,
    naive_is_dominating,
    naive_up_closed_eulerian,
    node_degree,
    odd_degree_nodes,
    peeling_format_set,
    rebuilt_lattice,
    seed_graphs,
    size_classes,
    tiled_chunk_lattice,
    up_closed_families,
    up_closure_table,
)
from domrec import (
    FamilySpec,
    SeedGraph,
    domination_profile,
    format_set,
    is_cocktail_party,
    make_family,
)
from domrec import domination
from domrec.domination import (
    bounded,
    corona_chunks,
    dominating_table,
    labeled_chunks,
    lattice_eulerian,
    node_fields,
    size_counts,
    up_closure_gaps,
)
from domrec.graphs import (
    corona_of,
    is_connected,
    labeled_graph,
    sliced_bipartite,
    sliced_cocktail_party,
    sliced_connected,
    sliced_non_neighbors,
    vertex_pairs,
)
from domrec.errors import BoundBelowGamma, BoundExceeded, DimensionMismatch, EmptyGraph

P4 = make_family(FamilySpec.path(4))

# Frozen by exhaustive check of all 16 subsets of P_4 (see the naive oracle).
P4_DOMINATING = sorted(
    [0b0101, 0b1001, 0b0110, 0b1010, 0b0111, 0b1011, 0b1101, 0b1110, 0b1111]
)


def test_p4_oracle_agrees_with_frozen_list():
    assert sorted(m for m in range(16) if naive_is_dominating(P4, m)) == P4_DOMINATING


def test_is_dominating_p4():
    assert is_dominating(P4, 0b0110)
    assert not is_dominating(P4, 0b0011)
    for mask in range(16):
        assert is_dominating(P4, mask) == (mask in P4_DOMINATING)


def test_empty_set_never_dominates_nonempty_graph():
    for spec in [FamilySpec.path(1), FamilySpec.complete(5), FamilySpec.cycle(3)]:
        g = make_family(spec)
        assert not is_dominating(g, 0)


def test_star_leaves_dominate_minimally():
    g = make_family(FamilySpec.star(3))  # center 0, leaves 1..3
    leaves = 0b1110
    assert is_dominating(g, leaves)
    assert is_minimal_dominating(g, leaves)


def test_minimality():
    assert not is_minimal_dominating(P4, 0b1111)
    c7 = make_family(FamilySpec.cycle(7))
    assert is_minimal_dominating(c7, 0b0101001)  # {0,3,5}
    assert not is_minimal_dominating(c7, 0b0000011)  # {0,1}, not dominating


def test_dimension_mismatch():
    # a mask naming vertex n, or a negative one, is no set of P4's vertices
    for mask in (1 << P4.n, -1):
        with pytest.raises(DimensionMismatch):
            is_dominating(P4, mask)
        with pytest.raises(DimensionMismatch):
            is_minimal_dominating(P4, mask)
        with pytest.raises(DimensionMismatch):
            node_degree(P4, mask, P4.n)


def _assert_table_agrees(g):
    """Lattice kernel bits == bytewise DP bytes == naive predicate, per subset."""
    n = g.n
    kernel = bin(dominating_table(g))[:1:-1].ljust(1 << n, "0")
    assert len(kernel) == 1 << n
    bytewise = "".join("01"[b] for b in bytewise_dominating_table(g))
    naive = "".join("01"[naive_is_dominating(g, s)] for s in range(1 << n))
    assert kernel == bytewise == naive, g.adj


def test_table_matches_oracles_on_small_and_wide_graphs():
    _assert_table_agrees(SeedGraph(0, []))  # only the empty set dominates
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            _assert_table_agrees(g)
    _assert_table_agrees(make_family(FamilySpec.cocktail(16)))


@settings(max_examples=120, deadline=None)
@given(seed_graphs(max_n=7))
def test_table_matches_oracles_on_random_seeds(g):
    _assert_table_agrees(g)


@pytest.mark.parametrize("n", range(8, 19))
def test_table_matches_oracles_on_both_sides_of_the_cover_table(n):
    """A sparse and a dense seed per n = 8..18: one cover-table lookup per
    vertex at n = 8, one OR per member of N[v] from n = 9."""
    rng = random.Random(n)
    for density in (0.15, 0.85):
        edges = [e for e in vertex_pairs(n) if rng.random() < density]
        _assert_table_agrees(SeedGraph.from_edges(n, edges))


def test_odd_nodes_match_the_counted_degrees():
    """The parity kernel against each node's moves counted one by one, at
    every k on every labeled seed with n <= 5."""
    for n in range(1, 6):
        lattice = domination._lattice(n)
        for g in enumerate_labeled_graphs(n):
            table = dominating_table(g)
            for k in range(n + 1):
                nodes = bounded(n, table, k)
                assert domination._odd_nodes(lattice, n, table, k, nodes) == \
                    odd_degree_nodes(n, table, k), (g.adj, k)


def test_table_past_the_cover_tables_keeps_no_mask():
    """At n = 20 a cover table would outgrow a chunk, so the table is built
    from _members(20) alone and nothing outlives the call but the table
    itself: one more kept mask of 2**20 bits would take 128 KiB."""
    g = SeedGraph.from_edges(20, [(v, v + 1) for v in range(19)])
    domination._members(20)
    tracemalloc.start()
    try:
        table = dominating_table(g)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept - sys.getsizeof(table) < 64 << 10, kept


def test_enumerate_counts():
    assert len(enumerate_dominating_sets(P4, 4)) == 9
    assert len(enumerate_dominating_sets(P4, 3)) == 8
    k5 = make_family(FamilySpec.complete(5))
    singletons = enumerate_dominating_sets(k5, 1)
    assert singletons == [1 << v for v in range(5)]


def test_enumerate_order_is_cardinality_then_mask():
    sets = enumerate_dominating_sets(P4, 4)
    keys = [(s.bit_count(), s) for s in sets]
    assert keys == sorted(keys)


@settings(max_examples=120, deadline=None)
@given(seed_graphs(max_n=7))
def test_enumerate_matches_naive_filter(g):
    for k in (g.n // 2, g.n):
        got = enumerate_dominating_sets(g, k)
        expected = naive_dominating_masks(g, k)
        assert sorted(got) == sorted(expected)


@settings(max_examples=150, deadline=None)
@given(seed_graphs(max_n=6))
def test_parity_total_count_odd(g):
    # holds for every graph, connected or not
    assert domination_profile(g).total_count % 2 == 1


@settings(max_examples=120, deadline=None)
@given(seed_graphs(max_n=6))
def test_superset_monotonicity(g):
    profile = domination_profile(g)
    counts = profile.counts_by_size
    n = g.n
    for t in range(n):
        if counts[t] == comb(n, t):
            assert counts[t + 1] == comb(n, t + 1)
    # spot-check the set-level statement on every dominating set
    for s in enumerate_dominating_sets(g, n):
        for v in range(n):
            assert is_dominating(g, s | (1 << v))


@settings(max_examples=120, deadline=None)
@given(seed_graphs(max_n=6))
def test_profile_invariants(g):
    p = domination_profile(g)
    n = g.n
    assert all(p.counts_by_size[s] <= comb(n, s) for s in range(n + 1))
    assert p.counts_by_size[n] == 1
    assert p.gamma <= p.upper_gamma <= n
    assert p.gamma <= p.universal_threshold
    assert p.universal_threshold == next(c for c in range(n + 1)
                                         if p.counts_by_size[c] == comb(n, c))
    assert p.well_dominated == (p.gamma == p.upper_gamma)
    assert p.total_count == sum(p.counts_by_size)
    assert p.upper_gamma == max(
        s.bit_count() for s in range(1 << n) if is_minimal_dominating(g, s)
    )


def test_profile_examples():
    assert domination_profile(make_family(FamilySpec.path(7))).gamma == 3
    h6 = domination_profile(make_family(FamilySpec.cocktail(6)))
    assert h6.gamma == 2 and h6.universal_threshold == 2
    cp3 = domination_profile(make_family(FamilySpec.corona(FamilySpec.path(3))))
    assert cp3.gamma == cp3.upper_gamma == 3 and cp3.well_dominated


def test_profile_gamma_closed_forms():
    for n in range(1, 16):
        assert domination_profile(make_family(FamilySpec.path(n))).gamma == -(-n // 3)
    for n in range(3, 16):
        assert domination_profile(make_family(FamilySpec.cycle(n))).gamma == -(-n // 3)
    for n in range(1, 9):
        assert domination_profile(make_family(FamilySpec.complete(n))).gamma == 1
    for m in range(1, 6):
        for n in range(m, 6):
            gamma = domination_profile(
                make_family(FamilySpec.complete_bipartite(m, n))
            ).gamma
            assert gamma == (1 if m == 1 else 2)


def test_profile_isolated_vertex_threshold():
    # an isolated vertex forces every dominating set to contain it
    g = SeedGraph(3, [0b010, 0b001, 0b000])  # edge 0-1, isolated 2
    p = domination_profile(g)
    assert p.universal_threshold == 3
    assert p.counts_by_size == (0, 0, 2, 1)


def test_profile_empty_graph():
    with pytest.raises(EmptyGraph):
        domination_profile(SeedGraph(0, []))


def test_format_set_matches_the_vertex_scan():
    for bits in range(1 << 8):
        scan = [v for v in range(8) if (bits >> v) & 1]
        assert format_set(bits) == "{" + ",".join(map(str, scan)) + "}"
    assert format_set(0b101) == "{0,2}" and format_set(0) == "{}"
    with pytest.raises(ValueError):
        format_set(-1)


def test_format_set_matches_the_peeling_formatter_below_2_16():
    for bits in range(1 << 16):
        assert format_set(bits) == peeling_format_set(bits)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 1 << 40))
def test_format_set_matches_the_peeling_formatter_on_wide_masks(bits):
    assert format_set(bits) == peeling_format_set(bits)


@pytest.mark.parametrize("bits", [-1, -(1 << 40)])
def test_format_set_rejects_negative_masks_like_the_peeling_formatter(bits):
    for formatter in (format_set, peeling_format_set):
        with pytest.raises(ValueError, match="non-negative"):
            formatter(bits)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_node_fields_transposes_lattice_masks(data):
    """Bit p of word s, for every s < 2**n, is bit s of masks[p], for field
    widths of one, two, four and eight bytes: up to 8, 16, 32 and 64 masks."""
    for width in (1, 2, 4, 8):
        n = data.draw(st.integers(0, 12))
        count = data.draw(st.integers(4 * width + 1 if width > 1 else 0, 8 * width))
        masks = data.draw(st.lists(st.integers(0, (1 << (1 << n)) - 1),
                                   min_size=count, max_size=count))
        fields = [sum((x >> s & 1) << p for p, x in enumerate(masks)) for s in range(1 << n)]
        table = node_fields(n, masks)
        assert table.itemsize == width
        assert table.tolist() == fields


def _chunk_answers(chunk):
    """Per graph of the chunk, in edge-mask order: table parity, odd node
    and even dominating node at k = n, connected, cocktail and gamma < t,
    all read off the sliced bits, then gamma and the universal threshold t
    from the size_classes oracle."""
    n = chunk.n
    odd = chunk.odd_degree_nodes()
    bits = [chunk.parity(chunk.table), chunk.any(odd), chunk.any(chunk.table & ~odd),
            sliced_connected(n, chunk.edges, chunk.every),
            sliced_cocktail_party(n, chunk.edges, chunk.every), chunk.below_threshold()]
    some, every = size_classes(chunk)
    for i in range(chunk.count):
        gamma = next(c for c in range(n + 1) if some[c] >> i & 1)
        threshold = next(c for c in range(n + 1) if every[c] >> i & 1)
        yield tuple(bool(x >> i & 1) for x in bits) + (gamma, threshold)


def _seed_answers(g):
    n = g.n
    table = dominating_table(g)
    odd = domination._odd_nodes(domination._lattice(n), n, table, n, table)
    counts = size_counts(n, table)
    gamma = next(c for c in range(n + 1) if counts[c])
    threshold = next(c for c in range(n + 1) if counts[c] == comb(n, c))
    return (table.bit_count() % 2 == 1, odd != 0, odd != table, is_connected(g),
            is_cocktail_party(g), gamma < threshold, gamma, threshold)


@pytest.mark.parametrize("chunk_bits,n_max,split", [
    (domination.CHUNK_BITS, 6, {6}), (6, 5, {4, 5}), (5, 5, {3, 4, 5})])
def test_labeled_chunks_match_the_per_seed_path(monkeypatch, chunk_bits, n_max, split):
    """Every labeled graph with n <= n_max: the sliced per-graph bits equal
    the per-seed answers, and each chunk decodes to the enumerated graphs.
    The orders in split take several chunks; the narrow chunks cross their
    seams at n <= 5, down to one-graph chunks at n = 5."""
    monkeypatch.setattr(domination, "CHUNK_BITS", chunk_bits)
    for n in range(1, n_max + 1):
        seeds = list(enumerate_labeled_graphs(n))
        chunks = list(labeled_chunks(n))
        assert (len(chunks) > 1) == (n in split)
        assert [c.first for c in chunks] == list(range(0, len(seeds), chunks[0].count))
        sliced = [answer for c in chunks for answer in _chunk_answers(c)]
        assert sliced == [_seed_answers(g) for g in seeds]
        decoded = [g for c in chunks for g in c.graphs(c.every)]
        assert [g.adj for g in decoded] == [g.adj for g in seeds]


def test_sliced_connected_counts_match_oeis_a001187():
    """Connected labeled graphs on n = 1..7 vertices (OEIS A001187)."""
    counts = [sum(sliced_connected(n, c.edges, c.every).bit_count() for c in labeled_chunks(n))
              for n in range(1, 8)]
    assert counts == [1, 1, 4, 38, 728, 26704, 1866256]


@pytest.mark.parametrize("levels", [1, 2, "n - 1"])
def test_sliced_non_neighbor_counters_match_degrees(monkeypatch, levels):
    """Every labeled graph with n <= 5: bit i of counter level j at vertex v
    is set iff v has at least j + 1 non-neighbors in graph i, with the top
    level saturating when there are fewer levels than counts.  With chunks
    of 2**6 lattice bits, n = 4 and 5 take several chunks, each with high
    edges that all its graphs share."""
    monkeypatch.setattr(domination, "CHUNK_BITS", 6)
    for n in range(1, 6):
        depth = n - 1 if levels == "n - 1" else levels
        for chunk in labeled_chunks(n):
            counts = sliced_non_neighbors(n, chunk.edges, chunk.every, depth)
            for i, g in enumerate(chunk.graphs(chunk.every)):
                assert [[x >> i & 1 for x in counter] for counter in counts] == [
                    [int(n - 1 - g.degree(v) > j) for j in range(depth)] for v in range(n)]


def test_sliced_bipartite_matches_the_per_seed_check():
    """Every labeled graph with n <= 6, and every graph of three seeded
    chunks at n = 7: bit i is set iff graph i is bipartite."""
    chunks = [c for n in range(1, 7) for c in labeled_chunks(n)]
    b = next(labeled_chunks(7)).count.bit_length() - 1
    rng = random.Random(2024)
    chunks += [domination.LabeledChunk(7, rng.randrange(1 << 21 - b) << b, b) for _ in range(3)]
    for chunk in chunks:
        bits = sliced_bipartite(chunk.n, chunk.edges, chunk.every)
        assert [bits >> i & 1 for i in range(chunk.count)] == [
            is_bipartite(g) for g in chunk.graphs(chunk.every)], (chunk.n, chunk.first)


@pytest.mark.parametrize("chunk_bits", [domination.CHUNK_BITS, 8])
def test_corona_chunks_match_the_per_corona_tables(monkeypatch, chunk_bits):
    """Every inner graph with n <= 5: block i of each corona chunk is the
    table of the corona of inner graph first + i, and its edge bits are that
    graph's.  n = 5 takes several chunks; with 2**8 bits n = 4 and 5 take
    one inner graph a chunk."""
    monkeypatch.setattr(domination, "CHUNK_BITS", chunk_bits)
    for n in range(1, 6):
        block = 1 << 2 * n
        firsts = []
        for chunk in corona_chunks(n):
            firsts.append(chunk.first)
            for i in range(chunk.every.bit_length()):
                inner = labeled_graph(n, chunk.first + i)
                assert chunk.table >> i * block & (1 << block) - 1 == dominating_table(
                    corona_of(inner)), (n, chunk.first + i)
                assert [e >> i & 1 for e in chunk.edges] == [
                    inner.has_edge(u, v) for u, v in vertex_pairs(n)]
        assert firsts == list(range(0, 1 << len(vertex_pairs(n)), chunk.every.bit_length()))
    with pytest.raises(BoundExceeded):
        next(corona_chunks(8))


def _dominating_pairs(n: int, c: int) -> int:
    """N(n, c), the pairs (labeled graph G on n vertices, c-set S that
    dominates G): choose S, give each of the n - c vertices outside it a
    nonempty set of neighbours in S, and take any edges inside S and
    inside its complement."""
    return comb(n, c) * (2 ** c - 1) ** (n - c) * 2 ** (comb(c, 2) + comb(n - c, 2))


def test_dominating_pairs_match_the_brute_force_count():
    for n in range(1, 6):
        assert [_dominating_pairs(n, c) for c in range(n + 1)] == dominating_pair_counts(n), n


def test_chunk_tables_sum_to_the_dominating_pairs():
    """Per size class c, the dominating c-sets of every chunk with n <= 7
    sum to N(n, c): a check of the table bits themselves, not of per-graph
    verdicts."""
    for n in range(1, 8):
        totals = [0] * (n + 1)
        for chunk in labeled_chunks(n):
            for c, x in enumerate(chunk.lattice[1]):
                totals[c] += (chunk.table & x).bit_count()
        assert totals == [_dominating_pairs(n, c) for c in range(n + 1)], n


def test_labeled_chunks_bound():
    for n in (0, 8):
        with pytest.raises(BoundExceeded):
            next(labeled_chunks(n))


# --- the lattice builders ----------------------------------------------------


def test_lattice_matches_the_rebuilt_recurrence():
    for n in range(15):
        assert domination._lattice(n) == rebuilt_lattice(n), n


def test_lattice_builds_each_mask_once():
    """The build's tracemalloc peak is within 10% of the masks it keeps:
    rebuilding the member and size lists per vertex held two copies at
    once, 1.26 times the masks kept at n = 20."""
    tracemalloc.start()
    try:
        member = domination._members.__wrapped__(20)
        size = domination._sizes.__wrapped__(20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(map(sys.getsizeof, member + size))
    assert peak <= 1.1 * kept, peak / kept


def test_chunk_lattice_builds_no_wide_size_class():
    """A chunk of 2**10 graphs on 7 vertices reads the member masks of 17
    and 10 vertices, and the size classes of 7 alone."""
    caches = (domination._members, domination._sizes, domination._lattice, domination._cover_table)
    for cached in caches:  # the lattice and cover-table caches hold member masks too
        cached.cache_clear()
    try:
        domination._chunk_lattice.__wrapped__(7, 10)
        assert domination._members.cache_info().currsize == 2
        assert domination._sizes.cache_info().currsize == 1
        hits = domination._sizes.cache_info().hits
        domination._sizes(7)
        assert domination._sizes.cache_info().hits == hits + 1
    finally:
        for cached in caches:
            cached.cache_clear()


@pytest.mark.parametrize("chunk_bits", [domination.CHUNK_BITS, 8, 6, 5, 3])
def test_chunk_lattice_matches_the_tiled_masks(monkeypatch, chunk_bits):
    """Every n = 1..7 with the chunk width labeled_chunks picks: all of a
    small order's graphs in one chunk, down to one graph a chunk at 3 bits,
    where n + b = n and the chunk's masks are those of _lattice(n)."""
    monkeypatch.setattr(domination, "CHUNK_BITS", chunk_bits)
    for n in range(1, 8):
        b = next(labeled_chunks(n)).count.bit_length() - 1
        (member, sizes), covers, low_edges = domination._chunk_lattice(n, b)
        tiled = tiled_chunk_lattice(n, b)
        assert ((list(member), sizes), covers, list(low_edges)) == tiled, (n, b)


# --- the lattice Eulerian verdict on up-closed tables ----------------------

#: {0,1,4} and {2,5,6} on 7 vertices: at k = 5 no set contains both, so the
#: up-closure's nodes split into the 11 supersets of each, all of even degree.
SPLIT = (7, (0b0010011, 0b1100100), 5)


def test_lattice_flood_finds_two_even_components():
    """No domination table seen has even degrees and two components with
    edges, so a synthetic up-closed table pins the flood's negative case."""
    n, generators, k = SPLIT
    table = up_closure_table(n, generators)
    assert sum(size_counts(n, table)[: k + 1]) == 22
    assert odd_degree_nodes(n, table, k) == 0
    assert lattice_eulerian(n, table, k) is False
    assert naive_up_closed_eulerian(n, generators, k) is False
    for g in generators:
        half = up_closure_table(n, [g])
        assert sum(size_counts(n, half)[: k + 1]) == 11
        assert lattice_eulerian(n, half, k) is True


def test_bound_outside_the_order_is_rejected():
    """bounded is the one check of k, so no negative k picks size classes
    by a negative slice and k = n + 1 is not read as k = n."""
    table = dominating_table(P4)
    for k in (-2, -1, P4.n + 1):
        for kernel in (bounded, odd_degree_nodes, lattice_eulerian):
            with pytest.raises(ValueError, match=r"k must be in \[0, 4\]"):
                kernel(P4.n, table, k)


@settings(max_examples=300, deadline=None)
@given(up_closed_families(max_n=8), st.data())
def test_up_closure_gaps_find_each_removed_set(family, data):
    """An up-closed table has no gaps.  Without one of its sets S it has
    exactly the gap S when a set one vertex below S is still in it, and
    none when S was minimal."""
    n, generators = family
    lattice = domination._lattice(n)
    table = up_closure_table(n, generators)
    assert up_closure_gaps(lattice, table) == 0
    s = data.draw(st.sampled_from([s for s in range(1 << n) if table >> s & 1]))
    below = any(table >> (s ^ 1 << u) & 1 for u in range(n) if s >> u & 1)
    assert up_closure_gaps(lattice, table & ~(1 << s)) == (1 << s if below else 0)


@settings(max_examples=150, deadline=None)
@given(up_closed_families(max_n=8))
def test_lattice_eulerian_matches_naive_oracle_on_up_closed_tables(family):
    n, generators = family
    table = up_closure_table(n, generators)
    for k in range(n + 1):
        expected = naive_up_closed_eulerian(n, generators, k)
        if expected is None:
            with pytest.raises(BoundBelowGamma):
                lattice_eulerian(n, table, k)
        else:
            assert lattice_eulerian(n, table, k) is expected, (n, generators, k)
