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
and the parity step are that lemma's oracles.  Its step and flood,
lattice_step and breadth_first_flood, are the package's former breadth-first
pair, one step per unit of distance: the oracle of the in-place _flood.
odd_degree_nodes counts each node's moves one by one over the nodes that
popcount_nodes picks by cardinality, the oracles of the parity kernel
_odd_nodes and of bounded.
ReconfigGraph keeps no neighbour lists: listed_adjacency parses them from
the CSV export, and naive_adjacency builds them from all pairs of nodes.
size_classes, the per-cardinality folds of a LabeledChunk, is the oracle of
the threshold test: the judges read gamma < t per graph from the
non-neighbor counts, and a block only for a regular graph.  The package's
former folds of a chunk's blocks, shift_fold_any and shift_fold_parity,
which fold each block into its lowest bit, and per_size_below_threshold,
one such fold per size class on every graph, are the oracles of the field
tests read off each block's top bit and of the threshold test on the
regular graphs alone; colouring_bipartite, its former fold of the edge bits
per 2-colouring, that of the bipartite test read off cached colourings.
rebuilt_lattice and tiled_chunk_lattice are the package's former lattice
builders, which rebuilt the member and size lists per vertex and tiled a
chunk's masks block by block: the oracles of the masks built once, which
package_lattice pairs as the lattice kernels read them.
is_bipartite, a breadth-first 2-colouring, is the oracle of
LabeledChunk.bipartite, and dominating_pair_counts, a count one
(graph, set) pair at a time, that of the closed form of the chunk tables'
totals.
rank_gather_analyze is analyze's former circuit writer, which read each
step's id off node_ranks and then its label from a list in node order: the
oracle of the labels keyed by mask.

assert_same_output compares two whole outputs by sha256 first and, on a
mismatch, reports where they first differ, so that a failing comparison of
megabytes ends in milliseconds instead of in pytest's diff of them.

The watchdog fixture, on every test, fails a test still running after
TEST_TIME_LIMIT seconds, so that a defect which loops for ever (a walk that
re-enables a used edge) fails its test instead of hanging the suite.
"""

from __future__ import annotations

import hashlib
import io
import json
import signal
from collections import Counter
from functools import reduce
from operator import or_
from itertools import combinations, islice

import hypothesis.strategies as st
import pytest

from domrec import SeedGraph, cli, disjoint_union, domination, theorems
from domrec.domination import (
    _repeat,
    bounded,
    dominating_table,
    domination_profile,
    format_set,
    format_sets,
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
from domrec.graphs import ENUMERATION_CAP, labeled_graph, parse_graph_spec, to_graph6, vertex_pairs
from domrec.reconfig import (
    DEFAULT_NODE_CAP,
    ODD_WITNESS_CAP,
    EulerReport,
    ReconfigGraph,
    build_reconfig,
    euler_circuit,
    eulerian_report,
    node_ranks,
    reconfig_to_csv,
)


class NotDominating(DomrecError):
    """The given vertex set does not dominate the seed graph."""


#: Seconds a test may run: many times the slowest test's 4 s.
TEST_TIME_LIMIT = 60


class TimeLimitExceeded(BaseException):
    """A test ran past TEST_TIME_LIMIT.  Not an Exception, so that neither
    the code under test nor hypothesis, which shrinks a failing example by
    running it again, catches it; pytest reports the test as failed."""


@pytest.fixture(autouse=True)
def watchdog():
    """Fail the test if it still runs after TEST_TIME_LIMIT seconds, by a
    SIGALRM from setitimer; the previous handler and timer are restored
    after it.  Where SIGALRM is missing (Windows) it does nothing."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"still running after {TEST_TIME_LIMIT} s")

    handler = signal.signal(signal.SIGALRM, expire)
    timer = signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, *timer)
        signal.signal(signal.SIGALRM, handler)


def _first_difference(got: str, expected: str) -> str:
    """Where got first differs from expected: the line, the column and a
    short excerpt of each, found by halving the common prefix (each step one
    C-speed slice comparison)."""
    lo, hi = 0, min(len(got), len(expected))
    while lo < hi:  # got[:lo] == expected[:lo]
        mid = (lo + hi + 1) // 2
        if got[:mid] == expected[:mid]:
            lo = mid
        else:
            hi = mid - 1
    line, column = got.count("\n", 0, lo) + 1, lo - got.rfind("\n", 0, lo) - 1
    start = max(lo - 20, 0)
    return (f"outputs of {len(got)} and {len(expected)} characters first differ at line {line}, "
            f"column {column}: {got[start:lo + 40]!r} != {expected[start:lo + 40]!r}")


def assert_same_output(got: str, expected: str) -> None:
    """got == expected for whole outputs, failing fast: their sha256 digests
    are compared first, with the first difference as the message, and the
    full equality is asserted after them."""
    assert hashlib.sha256(got.encode()).hexdigest() == hashlib.sha256(
        expected.encode()).hexdigest(), _first_difference(got, expected)
    assert got == expected


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


def popcount_nodes(n: int, table: int, k: int) -> int:
    """The nodes of D_k, the sets of table on n vertices of popcount <= k,
    picked one subset at a time.  Raises ValueError for k outside [0, n]."""
    if not 0 <= k <= n:
        raise ValueError(f"k must be in [0, {n}], got {k}")
    return sum(1 << s for s in range(1 << n) if table >> s & 1 and s.bit_count() <= k)


def odd_degree_nodes(n: int, table: int, k: int) -> int:
    """The odd-degree nodes of D_k, as a lattice mask over the domination
    table of a seed on n vertices, counted node by node over the nodes of
    popcount_nodes: the degree of a node S is the number of vertices u with
    S ^ {u} a node too."""
    nodes = popcount_nodes(n, table, k)
    odd = 0
    for s in range(1 << n):
        if nodes >> s & 1:
            degree = sum(nodes >> (s ^ 1 << u) & 1 for u in range(n))
            odd |= (degree & 1) << s
    return odd


def lattice_step(member, nodes: int, front: int) -> int:
    """One breadth-first flood step: the nodes one vertex away from the sets
    in front.  Per vertex u, the sets that contain u drop it (a shift down
    by 2**u) and the others add it (a shift up)."""
    out = 0
    for u, x in enumerate(member):
        down = front & x
        out |= down >> (1 << u) | (front ^ down) << (1 << u)
    return out & nodes


def breadth_first_flood(member, nodes: int, start: int) -> int:
    """The nodes that steps from start reach, start included, one
    lattice_step per unit of distance from a frontier of new nodes."""
    reached = front = start
    while front:
        front = lattice_step(member, nodes, front) & ~reached
        reached |= front
    return reached


def dominating_graph_shape(lattice, table: int) -> tuple[int, int]:
    """(unreached, crossed) for the D(G) on the sets of table, which must hold
    the full set V, on the lattice masks of a seed or a chunk: D(G) is
    connected iff the flood from V misses no node, and 2-colored by cardinality
    parity iff no step from either parity class lands on a node in it."""
    member, size = lattice
    even = reduce(or_, size[::2])
    return (table & ~breadth_first_flood(member, table, size[-1]),
            lattice_step(member, table, table & even) & even
            | lattice_step(member, table, table & ~even) & ~even)


def package_lattice(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The package's member and size masks of the subset lattice of n
    vertices, each cached on its own, as the pair a seed's lattice kernels
    read."""
    return domination._members(n), domination._sizes(n)


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


#: Byte -> the ASCII binary digit of its lowest bit.
_LOWEST_BIT_DIGIT = bytes(b"01"[i & 1] for i in range(256))


def lowest_bits(chunk, x: int) -> int:
    """Per graph, the lowest bit of its block of x.  A block of 8 bits or
    more starts a byte, so the bytes are taken at a stride of one block; a
    chunk of narrower blocks is at most 8 bits, read digit by digit."""
    block = 1 << chunk.n
    width = block * chunk.count
    if block < 8:
        return int(format(x, f"0{width}b")[block - 1 :: block], 2)
    data = x.to_bytes(width // 8, "little")[:: block // 8]
    return int(data.translate(_LOWEST_BIT_DIGIT)[::-1], 2)


def shift_fold_any(chunk, x: int) -> int:
    """Per graph, whether its block of x has a set bit: an OR fold of each
    block into its lowest bit by right shifts."""
    for s in range(chunk.n):
        x |= x >> (1 << s)
    return lowest_bits(chunk, x)


def shift_fold_parity(chunk, x: int) -> int:
    """Per graph, the parity of the set bits in its block of x: an XOR fold
    of each block into its lowest bit by right shifts."""
    for s in range(chunk.n):
        x ^= x >> (1 << s)
    return lowest_bits(chunk, x)


def per_size_below_threshold(chunk) -> int:
    """The graphs with gamma < t, one shift fold per c = 1..n-1: those with a
    dominating c-set and a vertex of c or more non-neighbors."""
    sizes = chunk.lattice[1]
    wide = [reduce(or_, level) for level in zip(*chunk.non_neighbors(chunk.n - 1))]
    return reduce(or_, (shift_fold_any(chunk, chunk.table & sizes[c]) & x
                        for c, x in enumerate(wide, 1)), 0)


def colouring_bipartite(chunk) -> int:
    """The graphs with no edge inside a colour class of some 2-colouring that
    gives vertex 0 colour 0, one fold of the chunk's edge bits per
    colouring."""
    n, edges, every = chunk.n, chunk.edges, chunk.every
    return reduce(or_, (every & ~reduce(or_, (x for (u, v), x in zip(vertex_pairs(n), edges)
                                              if not (colour >> u ^ colour >> v) & 1), 0)
                        for colour in range(0, 1 << n, 2)))


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


def rank_gather_analyze(spec_text: str, k_text: str, as_json: bool) -> str:
    """stdout of `analyze --graph spec_text --k k_text --circuit` (with
    --json when as_json), written as the circuit was when every step's id
    was read off node_ranks and its label from a list in r.nodes order."""
    g, spec = parse_graph_spec(spec_text)
    k = cli._parse_k(k_text, g.n)
    table = dominating_table(g)
    r = build_reconfig(g, k, table=table)
    rep = eulerian_report(r)
    report = cli.analysis_report(g, spec, k, rep, domination_profile(g, table))
    walk, rank, labels = [], [], []
    if rep.is_eulerian and rep.edge_count > 0:
        walk = euler_circuit(r)
        rank = node_ranks(r)
        head, tail = ('    "', '"') if as_json else ("", "")
        labels = [head + text + tail for text in format_sets(g.n, r.nodes)]
    out = io.StringIO()
    if not as_json:
        out.write("\n".join(cli._analysis_lines(report)) + "\n")
        before, sep, after = "euler circuit: ", " -> ", "\n" if walk else "none\n"
    else:
        text = json.dumps(dict(report, euler_circuit=[]), sort_keys=True, indent=2)
        if not walk:
            return text + "\n"
        head, _, tail = text.partition('"euler_circuit": []')
        before, sep, after = head + '"euler_circuit": [\n', ",\n", "\n  ]" + tail + "\n"
    out.write(before)
    for start in range(0, len(walk), cli._PIECES_PER_WRITE):
        ids = cli._gather(rank, walk[start:start + cli._PIECES_PER_WRITE])
        out.write((sep if start else "") + sep.join(cli._gather(labels, ids)))
    out.write(after)
    return out.getvalue()


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
    """The corona claims' sweep with no shared table: one table, one profile
    and one computed_eulerian call per inner graph and k.

    The package's former loop, kept as an oracle for the one table per order
    of theorems._corona_sweep, whose place it takes under monkeypatch.  It
    reads theorems.corona_of, dominating_table, domination_profile,
    computed_eulerian and _corona_eulerian at call time, so a patched
    table, profile or expectation reaches both sweeps alike.
    """
    for inner in inners:
        n = inner.n
        g = theorems.corona_of(inner)
        table = theorems.dominating_table(g)
        if check_profile:
            profile = theorems.domination_profile(g, table)
            if not (profile.gamma == profile.upper_gamma == n):
                yield (f"corona:g6:{to_graph6(inner)}", None, f"gamma = upper_gamma = {n}",
                       [profile.gamma, profile.upper_gamma])
        for k in range(n + 1, 2 * n):
            computed = theorems.computed_eulerian(g, k, table)
            expected = theorems._corona_eulerian(n, k)
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
