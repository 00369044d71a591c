"""k-dominating reconfiguration graphs and their Eulerian analysis.

The reconfiguration graph of a seed graph G at bound k has one node per
dominating set of cardinality at most k, held as its vertex mask; nodes are
adjacent when the sets differ by adding or removing a single vertex.  The
Eulerian test used throughout is the relaxed one: every node has even degree
and at most one component contains an edge (isolated nodes are harmless).
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from collections.abc import Iterator
from functools import cached_property, reduce
from itertools import chain, islice
from operator import or_

from .domination import (
    bounded,
    component_count,
    degree_classes,
    dominating_table,
    flip_masks,
    format_sets,
    node_fields,
    ordered_subsets,
)
from .errors import BoundBelowGamma, DimensionMismatch, NoEdges, NotEulerian, ReconfigTooLarge
from .graphs import SeedGraph

#: Node cap on listings (nodes, a circuit, DOT or CSV): a D_k can have
#: ~2**n nodes, and reports, which list none, are not capped.
DEFAULT_NODE_CAP = 1 << 22

#: How many odd-degree witness nodes a report keeps.
ODD_WITNESS_CAP = 8


class ReconfigGraph:
    """Reconfiguration graph on a set of vertex masks of seed.

    node_set is the set as one subset-lattice int (bit S set iff the mask S
    is a node), and it is all that is stored: two nodes are adjacent iff
    their masks differ in one vertex, so reports and the Euler walk are read
    off node_set.  nodes, its masks by (cardinality, mask) as an
    array('I'), is listed on first read and then kept; a node's place in it
    is its id in DOT and CSV.  Every listing, the walk included, raises
    ReconfigTooLarge for more than DEFAULT_NODE_CAP nodes before it lists
    anything.  node_set may hold any vertex masks of seed, not only
    dominating sets, and k is None when no cardinality bound chose them.
    """

    def __init__(self, seed: SeedGraph, k: int | None, node_set: int):
        if node_set < 0 or node_set >> (1 << seed.n):
            raise DimensionMismatch(f"node set holds a mask outside the vertices of {seed!r}")
        self.seed = seed
        self.k = k
        self.node_set = node_set

    @cached_property
    def nodes(self) -> array:
        _check_cap(self)
        return array("I", ordered_subsets(self.seed.n, self.node_set))

    @property
    def node_count(self) -> int:
        return self.node_set.bit_count()

    @property
    def edge_count(self) -> int:
        return sum(x.bit_count() for x in flip_masks(self.seed.n, self.node_set)) // 2

    def __repr__(self) -> str:
        return (f"ReconfigGraph({self.seed!r}, k={self.k}: "
                f"{self.node_count} nodes, {self.edge_count} edges)")


def _check_cap(r: ReconfigGraph):
    """Refuse to list r past DEFAULT_NODE_CAP nodes, read at call time."""
    if r.node_count > DEFAULT_NODE_CAP:
        raise ReconfigTooLarge(f"{r.node_count} nodes to list, over {DEFAULT_NODE_CAP}")


class EulerReport(namedtuple("EulerReport", "node_count edge_count degree_histogram "
                             "odd_degree_count odd_degree_nodes isolated_count "
                             "nontrivial_component_count is_connected is_eulerian")):
    """Eulerian analysis of one reconfiguration graph: the one summary of a
    D_k.  degree_histogram holds (degree, node count) pairs in degree
    order."""

    __slots__ = ()


def build_reconfig(g: SeedGraph, k: int, table: int | None = None) -> ReconfigGraph:
    """The reconfiguration graph of g at cardinality bound k, on the node
    set bounded(n, table, k): the sets of table of cardinality <= k.

    table is g's dominating_table, computed here if not given.  No node is
    listed, so the node cap applies only when its nodes are read.  Raises
    ValueError for k outside [0, n] (from bounded) and BoundBelowGamma for
    no node.
    """
    if table is None:
        table = dominating_table(g)
    node_set = bounded(g.n, table, k)
    if not node_set:
        raise BoundBelowGamma(f"no dominating set of cardinality <= {k}")
    return ReconfigGraph(g, k, node_set)


def eulerian_report(r: ReconfigGraph) -> EulerReport:
    """Counts, degrees and components, read off the node set on the subset
    lattice; Eulerian means no odd degree and at most one component
    containing an edge.  The first ODD_WITNESS_CAP odd-degree nodes in node
    order are kept as witnesses.  Isolated nodes are the nodes of degree 0;
    every other node lies in a component with edges."""
    n, nodes = r.seed.n, r.node_set
    classes = degree_classes(n, nodes)
    histogram = tuple(sorted((d, x.bit_count()) for d, x in classes.items()))
    odd = reduce(or_, (x for d, x in classes.items() if d & 1), 0)
    isolated = classes.get(0, 0)
    nontrivial = component_count(n, nodes, nodes ^ isolated)
    odd_count = odd.bit_count()
    isolated_count = isolated.bit_count()
    return EulerReport(
        node_count=r.node_count,
        edge_count=sum(d * c for d, c in histogram) // 2,
        degree_histogram=histogram,
        odd_degree_count=odd_count,
        odd_degree_nodes=tuple(islice(ordered_subsets(n, odd), ODD_WITNESS_CAP)),
        isolated_count=isolated_count,
        nontrivial_component_count=nontrivial,
        is_connected=nontrivial + isolated_count <= 1,
        is_eulerian=odd_count == 0 and nontrivial <= 1,
    )


def euler_circuit(r: ReconfigGraph) -> array:
    """Closed walk (an array('I') of node masks) using every edge once.

    Hierholzer construction with a deterministic tie-break: start at the
    lowest-index node (by place in r.nodes) incident to an edge and always
    take the lowest-index unused neighbour.  The walk has edge_count + 1
    entries, and lists no node: each subset's unused moves are one vertex
    mask in node_fields' table of the flip masks over all 2**n subsets (2
    bytes a subset for n <= 16, 4 above).  The lowest-index unused neighbour
    drops the highest vertex it can, since a down-move lands a size class
    lower and leaves a smaller mask the higher the vertex it drops; with no
    down-move left, it adds the lowest vertex it can.  A move flips its
    vertex in the mask and clears its bit at both ends, the same bit since
    flipping the vertex again leads back: at the far end in the word just
    read, which goes back to the table only when the walk leaves that node
    or, at a dead end, as 0.  When a sub-trail closes, its end goes to the
    exhausted stack and the trail (a stack of masks) is popped, one node at
    a time onto that stack, back to its last node with a move.  Once the
    trail and the exhausted stack hold every edge, the walk is the trail
    followed by the exhausted nodes in reverse, built in the trail's own
    array.

    Raises ReconfigTooLarge past the node cap.  The other checks read the
    flip masks: their XOR holds the odd-degree nodes (NotEulerian), their
    popcounts sum to twice the edge count (NoEdges when 0), and their OR
    holds the nodes with an edge, the first of which starts the walk.  Even
    degrees make the walk close at its start after using every edge of the
    start's component, so a walk shorter than edge_count + 1 means a second
    component has edges: NotEulerian again.
    """
    _check_cap(r)
    n = r.seed.n
    odd = linked = twice_edges = 0
    for x in flip_masks(n, r.node_set):
        odd ^= x
        linked |= x
        twice_edges += x.bit_count()
    if odd:
        raise NotEulerian("graph has an odd-degree node")
    if twice_edges == 0:
        raise NoEdges("no edges to traverse")
    moves = node_fields(n, flip_masks(n, r.node_set))
    # Masks as 32-bit words: an int of its own per edge is several times larger.
    stack, walk = array("I"), array("I")
    push = stack.append
    s = next(ordered_subsets(n, linked))
    while True:
        m = moves[s]
        while m:
            push(s)
            d = m & s
            low = 1 << d.bit_length() - 1 if d else m & -m
            moves[s] = m ^ low
            s ^= low
            m = moves[s] ^ low
        moves[s] = 0
        walk.append(s)
        # The trail holds len(stack) + len(walk) - 1 edges.
        if 2 * (len(stack) + len(walk) - 1) == twice_edges:
            break
        while stack:
            s = stack.pop()
            if moves[s]:
                break
            walk.append(s)
        else:
            break
    walk.reverse()
    stack.extend(walk)
    if len(stack) != twice_edges // 2 + 1:
        raise NotEulerian("edges in more than one component")
    return stack


def node_ranks(r: ReconfigGraph) -> array:
    """rank[s], mask s's place in r.nodes or -1: 4 bytes for each of the 2**n subsets."""
    nodes = r.nodes  # past the node cap this raises before the array is allocated
    rank = array("i", [-1]) * (1 << r.seed.n)
    for i, s in enumerate(nodes):
        rank[s] = i
    return rank


def _neighbour_ids(r: ReconfigGraph) -> Iterator[list[int]]:
    """Per node s of r in order, its neighbours' ids rank[s ^ 1 << u] >= 0, ascending."""
    rank = node_ranks(r)
    flips = [1 << u for u in range(r.seed.n)]
    ranked = (sorted([rank[s ^ f] for f in flips]) for s in r.nodes)
    return (ids[ids.count(-1):] for ids in ranked)  # the -1s sort first


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
        texts = format_sets(r.seed.n, r.nodes)
    return chain(
        ["graph reconfig {\n"],
        (f'  {i} [label="{text}"];\n' for i, text in enumerate(texts)),
        (f"  {i} -- {j};\n" for i, ids in enumerate(_neighbour_ids(r)) for j in ids if i < j),
        ["}\n"],
    )


def reconfig_to_csv(r: ReconfigGraph) -> Iterator[str]:
    """Adjacency CSV, one line (newline included) at a time: node_id,
    space-separated neighbor ids."""
    return chain(
        ["node_id,neighbor_ids\n"],
        (f"{i},{' '.join(map(str, ids))}\n" for i, ids in enumerate(_neighbour_ids(r))),
    )
