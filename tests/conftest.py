"""Shared test fixtures: independent brute-force oracles and graph strategies.

The oracles deliberately use different formulations than the package code
(per-vertex adjacency loops instead of coverage unions, all-pairs symmetric
difference instead of incremental moves) so agreement is meaningful.

The package's former one-set and one-seed functions live here too
(enumerate_labeled_graphs, is_dominating, is_minimal_dominating,
enumerate_dominating_sets, node_degree, cartesian_product and
parity_bipartition_valid): each restates an answer the subset lattice gives
whole, and the package itself never called them.  So does NotDominating,
the error that only node_degree raises.  So does a lattice kernel,
dominating_graph_shape: the chunk judges cite the lemma that an up-closed
table makes D(G) connected, whose moves keep it bipartite; the flood from V
and the parity step are that lemma's oracles.  odd_degree_nodes counts
each node's moves one by one, the oracle of the parity kernel _odd_nodes.
ReconfigGraph keeps no neighbour lists: listed_adjacency parses them from
the CSV export, and naive_adjacency builds them from all pairs of nodes.
size_classes, the per-cardinality folds of a LabeledChunk, is the oracle of
the threshold fold: the judges read gamma < t per graph from the
non-neighbor counts instead.
rebuilt_lattice and tiled_chunk_lattice are the package's former lattice
builders, which rebuilt the member and size lists per vertex and tiled a
chunk's masks block by block: the oracles of the masks built once.
is_bipartite, a breadth-first 2-colouring, is the oracle of
graphs.sliced_bipartite, and dominating_pair_counts, a count one
(graph, set) pair at a time, that of the closed form of the chunk tables'
totals.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from operator import or_
from itertools import combinations, islice

import hypothesis.strategies as st

from domrec import SeedGraph, disjoint_union, theorems
from domrec.domination import (
    _flood,
    _repeat,
    _step,
    bounded,
    dominating_table,
    domination_profile,
    format_set,
    ordered_subsets,
)
from domrec.errors import (
    BoundExceeded,
    DimensionMismatch,
    DomrecError,
    NoEdges,
    NotEulerian,
    ReconfigTooLarge,
)
from domrec.graphs import ENUMERATION_CAP, labeled_graph, to_graph6, vertex_pairs
from domrec.reconfig import (
    DEFAULT_NODE_CAP,
    ODD_WITNESS_CAP,
    EulerReport,
    ReconfigGraph,
    build_reconfig,
    eulerian_report,
    reconfig_to_csv,
)


class NotDominating(DomrecError):
    """The given vertex set does not dominate the seed graph."""


def enumerate_labeled_graphs(n: int):
    """Yield every labeled graph on n vertices exactly once.

    Edge masks are enumerated in increasing order and decoded by
    labeled_graph.
    """
    if not 1 <= n <= ENUMERATION_CAP:
        raise BoundExceeded(
            f"labeled enumeration supports 1 <= n <= {ENUMERATION_CAP}, got {n}"
        )
    for mask in range(1 << len(vertex_pairs(n))):
        yield labeled_graph(n, mask)


def is_dominating(g: SeedGraph, s: int) -> bool:
    """True iff every vertex outside the mask s has a neighbor in s."""
    if s < 0 or s >> g.n:
        raise DimensionMismatch(f"vertex mask {s:#x} is not a set of vertices of {g!r}")
    covered = 0
    m = s
    adj = g.adj
    while m:
        low = m & -m
        m ^= low
        covered |= adj[low.bit_length() - 1] | low
    return covered == (1 << g.n) - 1


def is_minimal_dominating(g: SeedGraph, s: int) -> bool:
    """True iff s dominates and no single-vertex deletion of s still dominates."""
    if not is_dominating(g, s):
        return False
    m = s
    while m:
        low = m & -m
        m ^= low
        if is_dominating(g, s ^ low):
            return False
    return True


def enumerate_dominating_sets(g: SeedGraph, k: int) -> list[int]:
    """The masks of all dominating sets of cardinality <= k, sorted by
    (cardinality, mask)."""
    if not 0 <= k <= g.n:
        raise ValueError(f"k must be in [0, {g.n}], got {k}")
    return list(ordered_subsets(g.n, bounded(g.n, dominating_table(g), k)))


def node_degree(g: SeedGraph, s: int, k: int) -> int:
    """Degree of the node for the vertex mask s in the reconfiguration graph
    at bound k, computed from the seed without materializing: removable
    members plus, below the bound, one up-move per outside vertex."""
    if not is_dominating(g, s):
        raise NotDominating(f"{format_set(s)} does not dominate {g!r}")
    c = s.bit_count()
    if c > k:
        raise ValueError(f"cardinality {c} exceeds bound k={k}")
    deg = g.n - c if c < k else 0
    m = s
    while m:
        low = m & -m
        m ^= low
        if is_dominating(g, s ^ low):
            deg += 1
    return deg


def cartesian_product(a: ReconfigGraph, b: ReconfigGraph,
                      node_cap: int = DEFAULT_NODE_CAP) -> ReconfigGraph:
    """Cartesian product: (u, v) ~ (x, y) iff equal in one coordinate and
    adjacent in the other.  Its seed is the disjoint union of a's and b's
    seeds and its nodes the masks x | y << a.seed.n, so its node set is the
    outer product of the factors' node sets, and k is None.  After the
    node-cap check, factor seeds of more than HARD_CAP vertices in all raise
    CapacityExceeded from disjoint_union."""
    na, nb = a.node_count, b.node_count
    if na * nb > node_cap:
        raise ReconfigTooLarge(f"product would have {na * nb} nodes")
    seed = disjoint_union([a.seed, b.seed])
    node_set = 0
    for y in b.nodes:
        node_set |= a.node_set << (y << a.seed.n)
    return ReconfigGraph(seed, None, node_set)


def parity_bipartition_valid(r: ReconfigGraph) -> bool:
    """True iff every edge joins sets whose cardinalities differ by one, so
    coloring nodes by cardinality parity is a proper 2-coloring."""
    cards = [s.bit_count() for s in r.nodes]
    for i, nbrs in enumerate(listed_adjacency(r)):
        ci = cards[i]
        for j in nbrs:
            if abs(ci - cards[j]) != 1:
                return False
    return True


def odd_degree_nodes(n: int, table: int, k: int) -> int:
    """The odd-degree nodes of D_k, as a lattice mask over the domination
    table of a seed on n vertices, counted node by node: the degree of a
    node S is the number of vertices u with S ^ {u} a node too."""
    nodes = bounded(n, table, k)
    odd = 0
    for s in range(1 << n):
        if nodes >> s & 1:
            degree = sum(nodes >> (s ^ 1 << u) & 1 for u in range(n))
            odd |= (degree & 1) << s
    return odd


def dominating_graph_shape(lattice, table: int) -> tuple[int, int]:
    """(unreached, crossed) for the D(G) on the sets of table, which must hold
    the full set V, on the lattice masks of a seed or a chunk: D(G) is
    connected iff the flood from V misses no node, and 2-colored by cardinality
    parity iff no step from either parity class lands on a node in it."""
    member, size = lattice
    even = reduce(or_, size[::2])
    return (table & ~_flood(member, table, size[-1]),
            _step(member, table, table & even) & even
            | _step(member, table, table & ~even) & ~even)


def rebuilt_lattice(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Masks over the subset lattice of n vertices, bit S standing for the
    subset with bitmask S: member[u] has bit S set iff u is in S, and size[c]
    iff |S| == c.  Built one vertex at a time: adding vertex u puts the
    subsets that contain it above the 2**u that do not."""
    member: list[int] = []
    size = [1]  # the empty set, the one subset of no vertices
    for u in range(n):
        width = 1 << u
        member = [x | x << width for x in member]
        member.append(((1 << width) - 1) << width)
        size = [lo | hi << width for lo, hi in zip(size + [0], [0] + size)]
    return tuple(member), tuple(size)


def tiled_chunk_lattice(n: int, b: int):
    """What every chunk of 2**b labeled graphs on n vertices shares.

    The lattice masks member[u] and size[c] are repeated in each graph's
    block of 2**n bits.  Graph i has low edge e < b iff bit e of i is set,
    so the graphs with edge e come in alternate runs of 2**e.  Also shared:
    per low edge, the graphs that have it, and the covers the low edges
    give, cover[v] being member[v] plus member[u] in the blocks of the
    graphs with edge uv.
    """
    member, size = rebuilt_lattice(n)
    block = 1 << n
    width = block << b

    def runs(e: int, unit: int) -> int:
        run = unit << e
        return _repeat(((1 << run) - 1) << run, 2 * run, unit << b)

    members = [_repeat(x, block, width) for x in member]
    sizes = [_repeat(x, block, width) for x in size]
    covers = members[:]
    for e, (u, v) in enumerate(vertex_pairs(n)[:b]):
        has = runs(e, block)
        covers[u] |= members[v] & has
        covers[v] |= members[u] & has
    return (members, sizes), covers, [runs(e, 1) for e in range(b)]


def size_classes(chunk) -> tuple[list[int], list[int]]:
    """Per cardinality c = 0..n, the graphs with a dominating c-set and
    the graphs in which every c-set dominates."""
    table = chunk.table
    sizes = chunk.lattice[1]
    return ([chunk.any(table & x) for x in sizes],
            [chunk.every & ~chunk.any(~table & x) for x in sizes])


def naive_is_dominating(g: SeedGraph, bits: int) -> bool:
    """Per-vertex check: every vertex outside the set has a neighbor inside."""
    for v in range(g.n):
        if (bits >> v) & 1:
            continue
        if not (g.adj[v] & bits):
            return False
    return True


def is_bipartite(g: SeedGraph) -> bool:
    """Two-colorability check by breadth-first traversal of each component."""
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] >= 0:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            m = g.adj[v]
            while m:
                low = m & -m
                m ^= low
                u = low.bit_length() - 1
                if color[u] < 0:
                    color[u] = color[v] ^ 1
                    queue.append(u)
                elif color[u] == color[v]:
                    return False
    return True


def dominating_pair_counts(n: int) -> list[int]:
    """Per cardinality c = 0..n, the pairs (labeled graph G on n vertices,
    c-set S that dominates G), counted one pair at a time through
    naive_is_dominating: the oracle of the closed form N(n, c)."""
    counts = [0] * (n + 1)
    for g in enumerate_labeled_graphs(n):
        for s in range(1 << n):
            counts[s.bit_count()] += naive_is_dominating(g, s)
    return counts


def bytewise_dominating_table(g: SeedGraph) -> bytearray:
    """Byte table over all 2**n subset masks: table[S] == 1 iff S dominates.

    The package's former one-pass dynamic program, kept as an oracle for the
    lattice kernel: the coverage of S is the coverage of S minus its lowest
    vertex, unioned with that vertex's closed neighborhood.
    """
    n = g.n
    size = 1 << n
    table = bytearray(size)
    if n == 0:
        table[0] = 1  # the empty set dominates the empty graph vacuously
        return table
    full = size - 1
    nbhd = list(g.closed_neighborhoods())
    cover = [0] * size
    for s in range(1, size):
        low = s & -s
        c = cover[s ^ low] | nbhd[low.bit_length() - 1]
        cover[s] = c
        if c == full:
            table[s] = 1
    return table


def naive_adjacency(r) -> list[list[int]]:
    """Sorted neighbour lists of r's nodes, from the all-pairs edge oracle."""
    adjacency = [[] for _ in r.nodes]
    for i, j in naive_reconfig_edges(r.nodes):
        adjacency[i].append(j)
        adjacency[j].append(i)
    return [sorted(a) for a in adjacency]


def listed_adjacency(r) -> list[list[int]]:
    """Sorted neighbour ids of r's nodes, parsed from reconfig_to_csv(r), so
    that tests of D_k's edges read the listing the package ships."""
    lines = "".join(reconfig_to_csv(r)).splitlines()
    assert lines[0] == "node_id,neighbor_ids" and len(lines) == r.node_count + 1
    adjacency = []
    for i, line in enumerate(lines[1:]):
        node, _, ids = line.partition(",")
        assert node == str(i)
        adjacency.append([int(j) for j in ids.split()])
    return adjacency


def reference_eulerian_report(r, adjacency=None) -> EulerReport:
    """Counts, degrees and components on neighbour lists (naive_adjacency(r)
    unless given), found by a search from each unseen node with an edge.

    The package's former report, kept as an oracle for the report read off
    the subset lattice."""
    if adjacency is None:
        adjacency = naive_adjacency(r)
    degrees = [len(a) for a in adjacency]
    odd_count = sum(d % 2 for d in degrees)
    odd = (i for i, d in enumerate(degrees) if d % 2)
    witnesses = tuple(r.nodes[i] for i in islice(odd, ODD_WITNESS_CAP))
    isolated = degrees.count(0)
    seen = bytearray(len(adjacency))
    nontrivial = 0
    for start, d in enumerate(degrees):
        if seen[start] or not d:
            continue
        nontrivial += 1
        stack = [start]
        seen[start] = 1
        while stack:
            for u in adjacency[stack.pop()]:
                if not seen[u]:
                    seen[u] = 1
                    stack.append(u)
    return EulerReport(
        node_count=len(adjacency),
        edge_count=sum(degrees) // 2,
        degree_histogram=tuple(sorted(Counter(degrees).items())),
        odd_degree_count=odd_count,
        odd_degree_nodes=witnesses,
        isolated_count=isolated,
        nontrivial_component_count=nontrivial,
        is_connected=nontrivial + isolated <= 1,
        is_eulerian=odd_count == 0 and nontrivial <= 1,
    )


def reference_euler_circuit(r) -> list[int]:
    """Tuple-set Hierholzer walk with the package's tie-break.

    The package's former circuit, kept as an oracle for the walk on masks:
    it runs on naive_adjacency(r), validates through
    reference_eulerian_report and marks used edges as (min, max) pairs in a
    set.
    """
    adjacency = naive_adjacency(r)
    report = reference_eulerian_report(r, adjacency)
    if not report.is_eulerian:
        raise NotEulerian("graph has an odd degree or two non-trivial components")
    if report.edge_count == 0:
        raise NoEdges("no edges to traverse")
    start = next(i for i, a in enumerate(adjacency) if a)
    ptr = [0] * len(adjacency)
    used: set[tuple[int, int]] = set()
    stack = [start]
    circuit = []
    while stack:
        v = stack[-1]
        a = adjacency[v]
        i = ptr[v]
        while i < len(a) and ((v, a[i]) if v < a[i] else (a[i], v)) in used:
            i += 1
        ptr[v] = i
        if i < len(a):
            u = a[i]
            used.add((v, u) if v < u else (u, v))
            stack.append(u)
        else:
            circuit.append(stack.pop())
    circuit.reverse()
    return circuit


def peeling_format_set(bits: int) -> str:
    """Set notation for a vertex mask, peeling off the lowest bit in turn.
    The package's former formatter, kept as an oracle for the byte tables."""
    if bits < 0:
        raise ValueError(f"vertex mask must be non-negative, got {bits}")
    members = []
    while bits:
        low = bits & -bits
        members.append(str(low.bit_length() - 1))
        bits ^= low
    return "{" + ",".join(members) + "}"


def reference_corona_sweep(report, inners, check_profile: bool):
    """The corona claims' sweep with no shared verdicts: one profile and one
    computed_eulerian call per inner graph and k.

    The package's former loop, kept as an oracle for the per-table verdicts
    of theorems._corona_sweep, whose place it takes under monkeypatch.  It
    reads theorems.corona_of and theorems.computed_eulerian at call time, so
    a patched corona reaches both sweeps alike.
    """
    for inner in inners:
        n = inner.n
        g = theorems.corona_of(inner)
        table = dominating_table(g)
        if check_profile:
            profile = domination_profile(g, table)
            if not (profile.gamma == profile.upper_gamma == n):
                yield (f"corona:g6:{to_graph6(inner)}", None, f"gamma = upper_gamma = {n}",
                       [profile.gamma, profile.upper_gamma])
        for k in range(n + 1, 2 * n):
            computed = theorems.computed_eulerian(g, k, table)
            expected = n % 2 == 0 and k == n + 1
            report.instances_checked += 1
            if computed != expected:
                yield f"corona:g6:{to_graph6(inner)}", k, expected, computed


def built_product_problems(parts: list[SeedGraph]) -> list[tuple]:
    """The product claim's check on built graphs, as the (expected, computed)
    pair of each problem found.  The package's former check, kept as an
    oracle for the table comparison: D of the union against the Cartesian
    product of its parts' D's, which must have the union's node masks once
    each and the same neighbours at every mask, and the built verdicts, the
    union Eulerian iff every part is and iff the product is."""
    union = disjoint_union(parts)
    du = build_reconfig(union, union.n)
    factors = [build_reconfig(p, p.n) for p in parts]
    prod = reduce(cartesian_product, factors)
    index = {s: i for i, s in enumerate(prod.nodes)}
    problems = []
    if len(index) != prod.node_count or index.keys() != set(du.nodes):
        problems.append(("the union's node masks, once each", "node masks differ"))
    else:
        mapped = [index[s] for s in du.nodes]
        listed = listed_adjacency(prod)
        if any(sorted(mapped[j] for j in nbrs) != listed[mapped[i]]
               for i, nbrs in enumerate(listed_adjacency(du))):
            problems.append(("edge-preserving bijection", "neighbor mismatch"))
    union_eulerian = eulerian_report(du).is_eulerian
    factor_eulerian = [eulerian_report(f).is_eulerian for f in factors]
    if union_eulerian != all(factor_eulerian):
        problems.append((f"union Eulerian iff factors {factor_eulerian}", union_eulerian))
    if union_eulerian != eulerian_report(prod).is_eulerian:
        problems.append(("union and product agree on Eulerian", union_eulerian))
    return problems


def naive_dominating_masks(g: SeedGraph, k: int) -> list[int]:
    """Filter subsets by size then by the naive predicate, via combinations."""
    out = []
    for size in range(k + 1):
        for combo in combinations(range(g.n), size):
            bits = 0
            for v in combo:
                bits |= 1 << v
            if naive_is_dominating(g, bits):
                out.append(bits)
    return out


def naive_reconfig_edges(masks: list[int]) -> set[tuple[int, int]]:
    """All-pairs oracle: nodes adjacent iff symmetric difference has one bit."""
    edges = set()
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if (masks[i] ^ masks[j]).bit_count() == 1:
                edges.add((i, j))
    return edges


def up_closure_table(n: int, generators) -> int:
    """The up-closure of the vertex masks in generators, as a lattice table
    over n vertices: bit S is set iff S contains some generator."""
    return sum(1 << s for s in range(1 << n) if any(s & g == g for g in generators))


def naive_up_closed_eulerian(n: int, generators, k: int) -> bool | None:
    """Relaxed Eulerian verdict for the reconfiguration graph of the
    up-closure of generators at bound k, on frozensets: nodes are the
    closure's sets of size <= k, adjacent when they differ in one vertex.
    None when there is no node."""
    gens = [frozenset(v for v in range(n) if g >> v & 1) for g in generators]
    nodes = {
        frozenset(c)
        for size in range(k + 1)
        for c in combinations(range(n), size)
        if any(gen <= frozenset(c) for gen in gens)
    }
    if not nodes:
        return None
    nbrs = {s: [s ^ {v} for v in range(n) if s ^ {v} in nodes] for s in nodes}
    if any(len(a) % 2 for a in nbrs.values()):
        return False
    components = 0
    seen: set[frozenset] = set()
    for start in nodes:
        if start in seen or not nbrs[start]:
            continue
        components += 1
        seen.add(start)
        queue = [start]
        for s in queue:
            for t in nbrs[s]:
                if t not in seen:
                    seen.add(t)
                    queue.append(t)
    return components <= 1


@st.composite
def up_closed_families(draw, max_n: int = 8):
    """(n, generators): a few random vertex masks on n <= max_n vertices,
    whose up-closure is the family."""
    n = draw(st.integers(1, max_n))
    generators = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=4))
    return n, generators


@st.composite
def seed_graphs(draw, min_n: int = 1, max_n: int = 7):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
    return SeedGraph.from_edges(n, edges)
