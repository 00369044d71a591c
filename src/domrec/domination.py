"""Dominating-set predicates, enumeration, and summary statistics.

A set of vertices is an int mask, bit v set iff v is a member: the nodes of
D_k and the sets the predicates below take are such masks, and format_set
writes one as '{0,2}'.  A subset S dominates when the union of closed
neighborhoods of its members covers every vertex.  Questions about all 2**n
subsets at once are answered on the subset lattice: a set of subsets is one
int whose bit S stands for the subset with bitmask S, so a whole-lattice
question is a few bitwise operations on such ints instead of a loop over the
subsets.  This module is the one owner of that representation.  D_k lives
on it too: odd_degree_nodes reads its degree parities off the table, and
lattice_eulerian floods its components, without building it.

It also owns its extension to the (edge mask E, subset S) lattice of a
labeled sweep, where bit E * 2**n + S is set iff S dominates the labeled
graph with edge mask E.  labeled_chunks cuts it into LabeledChunks of
consecutive edge masks, about 2**CHUNK_BITS bits each: a chunk's table is
the AND over v of cover_v = M_v | OR_u (M_u & X_uv), with M_u the member
mask repeated per graph and X_uv the graphs that have edge uv, and folds of
each graph's block of 2**n bits give one answer bit per graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from math import comb
from operator import and_, or_, xor

from .errors import BoundBelowGamma, BoundExceeded, DimensionMismatch, EmptyGraph
from .graphs import ENUMERATION_CAP, SeedGraph, labeled_graph, vertex_pairs

#: log2 of the lattice bits in one chunk of a labeled sweep: 2**17 bits, so
#: each of a chunk's masks is a 16 KiB int.  A chunk on n vertices holds
#: 2**(CHUNK_BITS - n) graphs (all of them if there are fewer, one at least),
#: so a sweep's memory does not grow with its number of graphs.
CHUNK_BITS = 17


@dataclass(frozen=True)
class DominationProfile:
    """Summary of the dominating sets of one seed graph."""

    gamma: int
    upper_gamma: int
    counts_by_size: tuple[int, ...]
    total_count: int
    universal_threshold: int
    well_dominated: bool


def format_set(bits: int) -> str:
    """Set notation for a vertex mask: 0b101 is '{0,2}'."""
    if bits < 0:
        raise ValueError(f"vertex mask must be non-negative, got {bits}")
    members = []
    while bits:
        low = bits & -bits
        members.append(str(low.bit_length() - 1))
        bits ^= low
    return "{" + ",".join(members) + "}"


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


@cache  # one entry per n <= HARD_CAP; at n = 26 its 53 ints take 8 MiB each
def _lattice(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
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


def dominating_table(g: SeedGraph) -> int:
    """The dominating sets of g as one int: bit S is set iff S dominates.

    S dominates iff it meets the closed neighborhood N[v] of every vertex v,
    so the table is the AND over v of the OR of member[u] over u in N[v].
    """
    member, _ = _lattice(g.n)
    table = (1 << (1 << g.n)) - 1  # with no vertices, the empty set dominates
    for nbhd in g.closed_neighborhoods():
        cover = 0
        while nbhd:
            low = nbhd & -nbhd
            nbhd ^= low
            cover |= member[low.bit_length() - 1]
        table &= cover
    return table


def _removable(member, table: int) -> list[int]:
    """Per vertex u, the subsets S that contain u and whose deletion S - {u}
    is in table: the bits of table moved up by u and kept where u is a member."""
    return [(table << (1 << u)) & x for u, x in enumerate(member)]


def _nodes(n: int, size, table: int, k: int) -> int:
    """The nodes of D_k: the sets in table of cardinality <= k.  At k = n
    the size classes cover every subset, so that is table itself."""
    return table if k == n else table & reduce(or_, size[: k + 1])


def _odd_nodes(lattice, n: int, table: int, k: int, nodes: int) -> int:
    member, size = lattice
    parity = reduce(xor, _removable(member, table), 0)
    parity ^= reduce(or_, (x for c, x in enumerate(size[:k]) if (n - c) & 1), 0)
    return parity & nodes


def odd_degree_nodes(n: int, table: int, k: int) -> int:
    """The odd-degree nodes of D_k, as a lattice mask over the domination
    table of a seed on n vertices.

    The degree of a node S is its removable-member count plus, below the
    bound, one up-move per outside vertex; its parity is the XOR of the
    removable masks, flipped on each size class c < k with n - c odd."""
    lattice = _lattice(n)
    return _odd_nodes(lattice, n, table, k, _nodes(n, lattice[1], table, k))


def lattice_eulerian(n: int, table: int, k: int) -> bool:
    """Whether D_k is Eulerian (every degree even, at most one component with
    edges), decided on the lattice of an up-closed table on n vertices
    without building D_k.

    One flood step moves a set of nodes F to its neighbours: per vertex u,
    the members of F that contain u drop it (a shift down by 2**u), the
    others add it (a shift up), and the results are kept where they are
    nodes.  The nodes that step(nodes) reaches are the non-isolated ones;
    flooding from the lowest of them must reach them all.

    Raises ValueError for k outside [0, n] and BoundBelowGamma when no set
    of cardinality <= k is in table.
    """
    if not 0 <= k <= n:
        raise ValueError(f"k must be in [0, {n}], got {k}")
    lattice = _lattice(n)
    member, size = lattice
    nodes = _nodes(n, size, table, k)
    if not nodes:
        raise BoundBelowGamma(f"no dominating set of cardinality <= {k}")
    if _odd_nodes(lattice, n, table, k, nodes):
        return False

    def step(front: int) -> int:
        out = 0
        for u, x in enumerate(member):
            down = front & x
            out |= down >> (1 << u) | (front ^ down) << (1 << u)
        return out & nodes

    linked = nodes & step(nodes)
    reached = front = linked & -linked
    while front:
        front = step(front) & ~reached
        reached |= front
    return reached == linked


def size_counts(n: int, table: int) -> list[int]:
    """How many subsets in table have each cardinality 0..n."""
    _, size = _lattice(n)
    return [(table & x).bit_count() for x in size]


def subset_masks(n: int, table: int, k: int) -> list[int]:
    """The subsets in table of cardinality <= k, sorted by (cardinality, mask).

    Set bits are found with str.find over the binary digits, since peeling
    the lowest bit off a 2**n-bit int costs time linear in its length."""
    _, size = _lattice(n)
    masks = []
    for x in size[: k + 1]:
        digits = bin(table & x)[:1:-1]  # least significant digit first
        s = digits.find("1")
        while s >= 0:
            masks.append(s)
            s = digits.find("1", s + 1)
    return masks


def enumerate_dominating_sets(g: SeedGraph, k: int) -> list[int]:
    """The masks of all dominating sets of cardinality <= k, sorted by
    (cardinality, mask)."""
    if not 0 <= k <= g.n:
        raise ValueError(f"k must be in [0, {g.n}], got {k}")
    return subset_masks(g.n, dominating_table(g), k)


def domination_profile(g: SeedGraph, table: int | None = None) -> DominationProfile:
    """Compute gamma, the upper domination number, per-size counts, and the
    universal domination threshold (least t with every t-subset dominating).
    table is g's dominating_table, computed here if not given."""
    n = g.n
    if n == 0:
        raise EmptyGraph("domination profile undefined on the empty graph")
    if table is None:
        table = dominating_table(g)
    member, size = _lattice(n)
    counts = size_counts(n, table)
    gamma = next(c for c in range(n + 1) if counts[c])
    universal_threshold = next(t for t in range(n + 1) if counts[t] == comb(n, t))
    minimal = table & ~reduce(or_, _removable(member, table))
    upper_gamma = max(c for c, x in enumerate(size) if minimal & x)
    return DominationProfile(
        gamma=gamma,
        upper_gamma=upper_gamma,
        counts_by_size=tuple(counts),
        total_count=sum(counts),
        universal_threshold=universal_threshold,
        well_dominated=gamma == upper_gamma,
    )


# ---------------------------------------------------------------------------
# Labeled sweeps on the (edge mask, subset) lattice
# ---------------------------------------------------------------------------


def _repeat(x: int, period: int, width: int) -> int:
    """x, which fills the low period bits, repeated up to width bits (both
    powers of two)."""
    while period < width:
        x |= x << period
        period <<= 1
    return x


#: Byte -> the ASCII binary digit of its lowest bit.
_LOWEST_BIT_DIGIT = bytes(b"01"[i & 1] for i in range(256))


@cache
def _chunk_lattice(n: int, b: int):
    """What every chunk of 2**b labeled graphs on n vertices shares.

    The lattice masks member[u] and size[c] are repeated in each graph's
    block of 2**n bits.  Graph i has low edge e < b iff bit e of i is set,
    so the graphs with edge e come in alternate runs of 2**e.  Also shared:
    per low edge, the graphs that have it, and the covers the low edges
    give, cover[v] being member[v] plus member[u] in the blocks of the
    graphs with edge uv.
    """
    member, size = _lattice(n)
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


class LabeledChunk:
    """Consecutive labeled graphs on n vertices on the (edge mask, subset)
    lattice.

    Graph i of the chunk is the one with edge mask first + i.  Its block of
    2**n lattice bits starts at bit i * 2**n, and bit i * 2**n + S of table
    is set iff S dominates graph i.  The graphs share their high edges and
    run through every combination of the low ones.  A per-graph answer is an
    int whose bit i is graph i's: every has all count bits set, and
    edges[e] holds the graphs with the e-th pair of vertex_pairs(n).
    """

    __slots__ = ("n", "first", "count", "every", "edges", "table", "_lattice")

    def __init__(self, n: int, first: int, b: int):
        lattice, covers, low_edges = _chunk_lattice(n, b)
        members = lattice[0]
        self.n = n
        self.first = first
        self.count = 1 << b
        self.every = (1 << self.count) - 1
        self.edges = low_edges[:]
        covers = covers[:]
        for e, (u, v) in enumerate(vertex_pairs(n)[b:], b):
            if first >> e & 1:
                covers[u] |= members[v]
                covers[v] |= members[u]
                self.edges.append(self.every)
            else:
                self.edges.append(0)
        self.table = reduce(and_, covers)
        self._lattice = lattice

    def _lowest(self, x: int) -> int:
        """Per graph, the lowest bit of its block of x.  A block of 8 bits
        or more starts a byte, so the bytes are taken at a stride of one
        block and each becomes the binary digit of its lowest bit; a chunk
        of narrower blocks (n < 3) is at most 8 bits, read digit by digit."""
        block = 1 << self.n
        width = block * self.count
        if block < 8:
            return int(format(x, f"0{width}b")[block - 1 :: block], 2)
        data = x.to_bytes(width // 8, "little")[:: block // 8]
        return int(data.translate(_LOWEST_BIT_DIGIT)[::-1], 2)

    def any(self, x: int) -> int:
        """Per graph, whether its block of the lattice mask x has a set bit:
        an OR fold of each block into its lowest bit."""
        for s in range(self.n):
            x |= x >> (1 << s)
        return self._lowest(x)

    def parity(self, x: int) -> int:
        """Per graph, the parity of the set bits in its block of x: an XOR
        fold."""
        for s in range(self.n):
            x ^= x >> (1 << s)
        return self._lowest(x)

    def odd_degree_nodes(self) -> int:
        """The odd-degree nodes of each graph's unrestricted D(G), as lattice
        bits: odd_degree_nodes at k = n, whose member masks keep every
        shifted bit inside its own block."""
        return _odd_nodes(self._lattice, self.n, self.table, self.n, self.table)

    def size_classes(self) -> tuple[list[int], list[int]]:
        """Per cardinality c = 0..n, the graphs with a dominating c-set and
        the graphs in which every c-set dominates."""
        table = self.table
        sizes = self._lattice[1]
        return ([self.any(table & x) for x in sizes],
                [self.every & ~self.any(~table & x) for x in sizes])

    def graphs(self, bits: int):
        """The graphs of the chunk whose bits are set, decoded in edge-mask
        order."""
        while bits:
            low = bits & -bits
            bits ^= low
            yield labeled_graph(self.n, self.first + low.bit_length() - 1)


def labeled_chunks(n: int):
    """Every labeled graph on n vertices, in edge-mask order, as chunks of
    about 2**CHUNK_BITS lattice bits."""
    if not 1 <= n <= ENUMERATION_CAP:
        raise BoundExceeded(f"labeled sweeps support 1 <= n <= {ENUMERATION_CAP}, got {n}")
    m = len(vertex_pairs(n))
    b = min(m, max(CHUNK_BITS - n, 0))
    for first in range(0, 1 << m, 1 << b):
        yield LabeledChunk(n, first, b)
