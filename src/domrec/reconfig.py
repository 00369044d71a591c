"""k-dominating reconfiguration graphs and their Eulerian analysis.

The reconfiguration graph of a seed graph G at bound k has one node per
dominating set of cardinality at most k, held as its vertex mask; nodes are
adjacent when the sets differ by adding or removing a single vertex.  The
Eulerian test used throughout is the relaxed one: every node has even degree
and at most one component contains an edge (isolated nodes are harmless).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, islice

from .domination import dominating_table, format_set, is_dominating, size_counts, subset_masks
from .errors import (
    BoundBelowGamma,
    NoEdges,
    NotDominating,
    NotEulerian,
    ReconfigTooLarge,
)
from .graphs import SeedGraph, disjoint_union

#: Node-cap default: a reconfiguration graph can have ~2**n nodes, so builds
#: above this size fail loudly instead of thrashing.
DEFAULT_NODE_CAP = 1 << 22

#: How many odd-degree witness nodes a report keeps.
ODD_WITNESS_CAP = 8


class ReconfigGraph:
    """Materialized reconfiguration graph with deterministic node order.

    Every node is a vertex mask of seed.  build_reconfig sorts its nodes by
    (cardinality, mask); a Cartesian product's seed is the disjoint union of
    its factors' seeds, and its nodes are the unions of their masks.
    Adjacency lists are sorted and never mutated after construction;
    euler_circuit relies on the order to find an edge's twin slot.
    """

    __slots__ = ("seed", "k", "nodes", "adjacency")

    def __init__(self, seed, k, nodes, adjacency):
        self.seed = seed
        self.k = k
        self.nodes = nodes
        self.adjacency = adjacency

    @property
    def node_count(self) -> int:
        return len(self.adjacency)

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])

    def __repr__(self) -> str:
        return (f"ReconfigGraph({self.seed!r}, k={self.k}: "
                f"{self.node_count} nodes, {self.edge_count} edges)")


@dataclass(frozen=True)
class EulerReport:
    """Eulerian analysis of one reconfiguration graph: the one summary of a
    built D_k.  degree_histogram holds (degree, node count) pairs in degree
    order."""

    node_count: int
    edge_count: int
    degree_histogram: tuple
    odd_degree_count: int
    odd_degree_nodes: tuple
    isolated_count: int
    nontrivial_component_count: int
    is_connected: bool
    is_eulerian: bool


def build_reconfig(g: SeedGraph, k: int, node_cap: int = DEFAULT_NODE_CAP,
                   table: int | None = None) -> ReconfigGraph:
    """Materialize the reconfiguration graph of g at cardinality bound k.

    table is g's dominating_table, computed here if not given.  The node
    count is read off its size counts before anything is allocated.  A
    subset of a node is within the bound, so a down-move lands on a node iff
    that subset dominates; up-moves need no test because supersets of
    dominating sets dominate.
    """
    n = g.n
    if not 0 <= k <= n:
        raise ValueError(f"k must be in [0, {n}], got {k}")
    if table is None:
        table = dominating_table(g)
    count = sum(size_counts(n, table)[: k + 1])
    if count > node_cap:
        raise ReconfigTooLarge(
            f"more than {node_cap} nodes for k={k}; raise node_cap to force"
        )
    if count == 0:
        raise BoundBelowGamma(f"no dominating set of cardinality <= {k}")
    masks = subset_masks(n, table, k)
    pos = {s: i for i, s in enumerate(masks)}
    adjacency = []
    for s in masks:
        nbrs = []
        m = s
        while m:
            low = m & -m
            m ^= low
            t = pos.get(s ^ low)
            if t is not None:
                nbrs.append(t)
        if s.bit_count() < k:
            rest = ((1 << n) - 1) ^ s
            while rest:
                low = rest & -rest
                rest ^= low
                nbrs.append(pos[s | low])
        nbrs.sort()
        adjacency.append(nbrs)
    return ReconfigGraph(g, k, masks, adjacency)


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


def eulerian_report(r: ReconfigGraph) -> EulerReport:
    """Counts, degrees and components; Eulerian means no odd degree and at
    most one component containing an edge.  The first ODD_WITNESS_CAP
    odd-degree nodes are kept as witnesses.  Isolated nodes are the nodes of
    degree 0, and a search from each unseen node with an edge visits one
    component that has edges."""
    adjacency = r.adjacency
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


def euler_circuit(r: ReconfigGraph) -> list[int]:
    """Closed walk (node indices) using every edge exactly once.

    Hierholzer construction with a deterministic tie-break: start at the
    lowest-index node incident to an edge and always take the lowest-index
    unused neighbor.  The walk has edge_count + 1 entries.

    Adjacency slots are laid out CSR-style (node v owns slots offsets[v] to
    offsets[v+1]) and a bytearray over the slots marks edges used.  Taking
    the edge v -> u from slot i marks i and its twin, u's slot for v, found
    by bisecting u's sorted list: O(E log Delta) for E edges and maximum
    degree Delta.

    Raises NotEulerian for an odd degree, then NoEdges for an edgeless
    graph.  Even degrees make the walk close at its start after using every
    edge of the start's component, so a walk shorter than edge_count + 1
    means a second component has edges: NotEulerian again.
    """
    adjacency = r.adjacency
    offsets = [0]
    for a in adjacency:
        if len(a) % 2:
            raise NotEulerian("graph has an odd-degree node")
        offsets.append(offsets[-1] + len(a))
    edge_count = offsets[-1] // 2
    if edge_count == 0:
        raise NoEdges("no edges to traverse")
    used = bytearray(offsets[-1])
    ptr = offsets[:-1]
    start = next(i for i, a in enumerate(adjacency) if a)
    stack = [start]
    circuit = []
    while stack:
        v = stack[-1]
        i = ptr[v]
        end = offsets[v + 1]
        while i < end and used[i]:
            i += 1
        if i < end:
            u = adjacency[v][i - offsets[v]]
            used[i] = used[offsets[u] + bisect_left(adjacency[u], v)] = 1
            ptr[v] = i + 1
            stack.append(u)
        else:
            ptr[v] = i
            circuit.append(stack.pop())
    if len(circuit) != edge_count + 1:
        raise NotEulerian("edges in more than one component")
    circuit.reverse()
    return circuit


def cartesian_product(a: ReconfigGraph, b: ReconfigGraph, node_cap: int = DEFAULT_NODE_CAP) -> ReconfigGraph:
    """Cartesian product: (u, v) ~ (x, y) iff equal in one coordinate and
    adjacent in the other.  Its seed is the disjoint union of a's and b's
    seeds, so node i * nb + j is the mask a.nodes[i] | b.nodes[j] << a.seed.n,
    and k is None.  After the node-cap check, factor seeds of more than
    HARD_CAP vertices in all raise CapacityExceeded from disjoint_union."""
    na, nb = a.node_count, b.node_count
    if na * nb > node_cap:
        raise ReconfigTooLarge(f"product would have {na * nb} nodes")
    seed = disjoint_union([a.seed, b.seed])
    masks = []
    adjacency = []
    for i, sa in enumerate(a.nodes):
        for j, sb in enumerate(b.nodes):
            masks.append(sa | sb << a.seed.n)
            nbrs = [i2 * nb + j for i2 in a.adjacency[i]]
            nbrs.extend(i * nb + j2 for j2 in b.adjacency[j])
            nbrs.sort()
            adjacency.append(nbrs)
    return ReconfigGraph(seed, None, masks, adjacency)


def parity_bipartition_valid(r: ReconfigGraph) -> bool:
    """True iff every edge joins sets whose cardinalities differ by one, so
    coloring nodes by cardinality parity is a proper 2-coloring."""
    cards = [s.bit_count() for s in r.nodes]
    for i, nbrs in enumerate(r.adjacency):
        ci = cards[i]
        for j in nbrs:
            if abs(ci - cards[j]) != 1:
                return False
    return True


def reconfig_to_dot(r: ReconfigGraph, label_style: str = "set") -> Iterator[str]:
    """DOT source, one line (newline included) at a time; node labels in set
    notation '{0,2}' or as bitstrings.  The label style is checked at once,
    the lines are formatted as they are read."""
    if label_style not in ("set", "bits"):
        raise ValueError(f"label_style must be 'set' or 'bits', got {label_style!r}")
    if label_style == "bits":
        # A leading 1 fixes the width at n digits, none when n = 0.
        texts = (format(s | 1 << r.seed.n, "b")[1:] for s in r.nodes)
    else:
        texts = map(format_set, r.nodes)
    return chain(
        ["graph reconfig {\n"],
        (f'  {i} [label="{text}"];\n' for i, text in enumerate(texts)),
        (f"  {i} -- {j};\n" for i, nbrs in enumerate(r.adjacency) for j in nbrs if i < j),
        ["}\n"],
    )


def reconfig_to_csv(r: ReconfigGraph) -> Iterator[str]:
    """Adjacency CSV, one line (newline included) at a time: node_id,
    space-separated neighbor ids."""
    return chain(
        ["node_id,neighbor_ids\n"],
        (f"{i},{' '.join(map(str, nbrs))}\n" for i, nbrs in enumerate(r.adjacency)),
    )
