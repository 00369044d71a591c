"""Domination tables on the subset lattice, and summary statistics.

A set of vertices is an int mask, bit v set iff v is a member: the nodes of
D_k and the subsets of the lattice below are such masks, and format_set
writes one as '{0,2}' from tables of labels.  A subset S dominates when the
union of closed neighborhoods of its members covers every vertex.  Questions
about all 2**n subsets at once are answered on the subset lattice: a set of
subsets is one int whose bit S stands for the subset with bitmask S, so a
whole-lattice question is a few bitwise operations on such ints instead of a
loop over the subsets.  This module is the one owner of that representation.
dominating_table ANDs, over the vertices v, the cover of N[v], the subsets
that meet it: up to n = 8 one lookup in a cover table of ORs of member
masks, a table lookup on broadword masks (Knuth, TAOCP 4A, 7.1.3), and
above it one OR per member of N[v].  D_k lives on the lattice too,
unbuilt: lattice_eulerian reads its degree parities off the table, the size
classes' share of them one strided slice, and floods its components, and
up_closure_gaps checks that a table, of one seed or a chunk of them, is
up-closed, which makes its unrestricted D(G) connected.  Any set of masks
taken as nodes, two adjacent when they differ in one vertex, is read the
same way: flip_masks gives each vertex's moves, degree_classes sums them
into degrees, component_count floods, and node_fields transposes lattice
masks into one word per subset, the Euler walk's table of moves.

It also owns its extension to the (edge mask E, subset S) lattice of a
labeled sweep, where bit E * 2**n + S is set iff S dominates the labeled
graph with edge mask E.  labeled_chunks cuts it into LabeledChunks of
consecutive edge masks, about 2**CHUNK_BITS bits each: a chunk's table is
the AND over v of cover_v = M_v | OR_u (M_u & X_uv), with M_u the member
mask of u and X_uv the graphs that have edge uv, and folds of each graph's
block of 2**n bits give one answer bit per graph.  corona_chunks lays out the
coronas H o K_1 of the labeled inner graphs H on n vertices the same way, on
their 2n vertices: pendant v' = v + n adds the cover M_v' | M_v, and inner
vertex v's cover gains M_v'.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from functools import cache, reduce
from operator import and_, or_, xor

from .errors import BoundBelowGamma, BoundExceeded, EmptyGraph
from .graphs import ENUMERATION_CAP, SeedGraph, labeled_graph, sliced_non_neighbors, vertex_pairs

#: log2 of the lattice bits in one chunk of a labeled sweep: 2**17 bits, so
#: each of a chunk's masks is a 16 KiB int.  A chunk on n vertices holds
#: 2**(CHUNK_BITS - n) graphs (all of them if there are fewer, one at least),
#: so a sweep's memory does not grow with its number of graphs.
CHUNK_BITS = 17

#: Largest n whose cover table, 2**n entries of 2**n bits, fits in a chunk's
#: 2**CHUNK_BITS bits.
_TABLE_N = CHUNK_BITS // 2


class DominationProfile(namedtuple("DominationProfile", "gamma upper_gamma counts_by_size "
                                    "total_count universal_threshold well_dominated")):
    """Summary of the dominating sets of one seed graph."""

    __slots__ = ()


@cache
def _chunk_labels(j: int) -> tuple[str, ...]:
    """Per value b of the j-th 13-bit chunk of a mask, ',v,w' for the
    vertices v, w of 13j..13j+12 that b holds: each vertex doubles the
    table, appending itself to every label before it."""
    labels = [""]
    for v in range(13 * j, 13 * j + 13):
        labels += [x + f",{v}" for x in labels]
    return tuple(labels)


def format_set(bits: int) -> str:
    """Set notation for a vertex mask: 0b101 is '{0,2}'.  Each 13-bit chunk
    of the mask is looked up in its table of 8,192 labels, built on first
    use: two tables, about 1.2 MiB, cover every seed up to HARD_CAP = 26."""
    if bits < 0:
        raise ValueError(f"vertex mask must be non-negative, got {bits}")
    text = ""
    j = 0
    while bits:
        text += _chunk_labels(j)[bits & 0x1FFF]
        bits >>= 13
        j += 1
    return "{" + text[1:] + "}"


def format_sets(n: int, masks, head: str = "", tail: str = ""):
    """head + format_set(s) + tail for each vertex mask s of n <= 26 vertices,
    as it is read; the second label table is built only for n > 13."""
    low, high = _chunk_labels(0), _chunk_labels(1) if n > 13 else ("",)
    return (f"{head}{{{(low[s & 0x1FFF] + high[s >> 13])[1:]}}}{tail}" for s in masks)


def _repeat(x: int, period: int, width: int) -> int:
    """x, which fills the low period bits, repeated up to width bits (both
    powers of two)."""
    while period < width:
        x |= x << period
        period <<= 1
    return x


@cache  # kept per n: n ints of 2**n bits, 208 MiB at n = 26
def _members(n: int) -> tuple[int, ...]:
    """Masks over the subset lattice of n vertices, bit S standing for the
    subset with bitmask S: member[u] has bit S set iff u is in S, runs of
    2**u clear and 2**u set bits in turn."""
    return tuple(_repeat(((1 << (1 << u)) - 1) << (1 << u), 2 << u, 1 << n) for u in range(n))


@cache  # kept per n: n + 1 ints of 2**n bits, 216 MiB at n = 26
def _sizes(n: int) -> tuple[int, ...]:
    """Masks over the subset lattice of n vertices: size[c] has bit S set iff
    |S| == c.  The classes grow in place from the top as each vertex u is
    added: the c-subsets with u are the (c - 1)-subsets without it moved up
    by 2**u."""
    size = [1]  # the empty set, the one subset of no vertices
    for u in range(n):
        size.append(0)
        for c in range(u + 1, 0, -1):
            size[c] |= size[c - 1] << (1 << u)
    return tuple(size)


@cache  # the pair alone, read once per verdict
def _lattice(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The member and size masks of the subset lattice of n vertices.  Each
    is cached on its own, so a reader of member masks builds no size class."""
    return _members(n), _sizes(n)


@cache  # kept per n <= _TABLE_N: 2**n ints of 2**n bits, 15 KiB at n = 8
def _cover_table(n: int) -> tuple[int, ...]:
    """Entry T is the OR of member[u] over the bits u of T: the subsets of
    n vertices that meet T."""
    entries = [0]
    for x in _members(n):
        entries += [e | x for e in entries]
    return tuple(entries)


def dominating_table(g: SeedGraph) -> int:
    """The dominating sets of g as one int: bit S is set iff S dominates.

    S dominates iff it meets the closed neighborhood N[v] of every vertex v,
    so the table is the AND over v of the cover of N[v], the OR of member[u]
    over u in N[v].  Up to n = _TABLE_N each cover is one entry of
    _cover_table(n); above it, where a table would outgrow a chunk, the ORs
    are taken one member of N[v] at a time, from the first member's mask
    itself, so no 2**n-bit mask is copied per vertex.
    """
    n = g.n
    nbhds = g.closed_neighborhoods()
    table = (1 << (1 << n)) - 1  # with no vertices, the empty set dominates
    if n <= _TABLE_N:
        return reduce(and_, map(_cover_table(n).__getitem__, nbhds), table)
    member = _members(n)
    for nbhd in nbhds:  # never empty, as N[v] holds v
        low = nbhd & -nbhd
        nbhd ^= low
        cover = member[low.bit_length() - 1]
        while nbhd:
            low = nbhd & -nbhd
            nbhd ^= low
            cover |= member[low.bit_length() - 1]
        table &= cover
    return table


def _removable(member, table: int):
    """Per vertex u, one mask at a time, the subsets S that contain u and
    whose deletion S - {u} is in table: the one-vertex up-shift, the bits of
    table moved up by 2**u and kept where u is a member."""
    for u, x in enumerate(member):
        yield (table << (1 << u)) & x


def bounded(n: int, table: int, k: int) -> int:
    """The nodes of D_k: the sets in table of cardinality <= k.  At k = n
    the size classes cover every subset, so that is table itself.  Raises
    ValueError for k outside [0, n] (the CLI checks --k first, to name it)."""
    if not 0 <= k <= n:
        raise ValueError(f"k must be in [0, {n}], got {k}")
    return table if k == n else table & reduce(or_, _sizes(n)[: k + 1])


def _odd_nodes(lattice, n: int, table: int, k: int, nodes: int) -> int:
    """The odd-degree nodes of D_k among nodes, the sets of table of
    cardinality <= k, on the lattice masks of a seed or a chunk.  The degree
    of a node S is its removable-member count plus, below the bound, one
    up-move per outside vertex; its parity is the XOR of the removable
    masks, flipped on each size class c < k with n - c odd: every other
    class from (n + 1) mod 2, one strided slice."""
    member, size = lattice
    parity = reduce(xor, _removable(member, table), 0)
    parity ^= reduce(or_, size[(n + 1) & 1 : k : 2], 0)
    return parity & nodes


def _step(member, nodes: int, front: int) -> int:
    """One flood step: the nodes one vertex away from the sets in front.  Per
    vertex u, the sets that contain u drop it (a shift down by 2**u) and the
    others add it (a shift up)."""
    out = 0
    for u, x in enumerate(member):
        down = front & x
        out |= down >> (1 << u) | (front ^ down) << (1 << u)
    return out & nodes


def _flood(member, nodes: int, start: int) -> int:
    """The nodes that steps from start reach, start included."""
    reached = front = start
    while front:
        front = _step(member, nodes, front) & ~reached
        reached |= front
    return reached


def lattice_eulerian(n: int, table: int, k: int) -> bool:
    """Whether D_k is Eulerian (every degree even, at most one component with
    edges), decided on the lattice of an up-closed table on n vertices
    without building D_k: the flood from the lowest non-isolated node must
    reach every node that a step from all nodes reaches.

    Raises ValueError for k outside [0, n] and BoundBelowGamma when no set
    of cardinality <= k is in table.
    """
    lattice = _lattice(n)
    member = lattice[0]
    nodes = bounded(n, table, k)
    if not nodes:
        raise BoundBelowGamma(f"no dominating set of cardinality <= {k}")
    if _odd_nodes(lattice, n, table, k, nodes):
        return False
    linked = nodes & _step(member, nodes, nodes)
    return _flood(member, nodes, linked & -linked) == linked


def up_closure_gaps(lattice, table: int) -> int:
    """The sets outside table one vertex above a set in it, on the lattice
    masks of a seed or a chunk: per vertex u, the sets with u whose deletion
    of u is in table.  It is 0 iff table is up-closed, as every domination
    table is."""
    return reduce(or_, _removable(lattice[0], table), 0) & ~table


def flip_masks(n: int, nodes: int):
    """Per vertex u = 0..n-1, the nodes from which flipping u lands on a
    node, for nodes any set of subsets of n vertices, two of which are
    adjacent when they differ in one vertex: the nodes r that hold u and stay
    nodes without it, and r moved down by 2**u, those that lack u and stay
    nodes with it.  Yielded one at a time, as _removable yields its masks."""
    for u, r in enumerate(_removable(_members(n), nodes)):
        r &= nodes
        yield r | r >> (1 << u)


def degree_classes(n: int, nodes: int) -> dict[int, int]:
    """Per degree d of the graph on the node set nodes, the lattice mask of
    its nodes of degree d, for the degrees some node has.  The degrees are
    summed bit-sliced over the flip masks (slice i holds bit i of each
    node's count), then the nodes are split slice by slice."""
    slices: list[int] = []
    for x in flip_masks(n, nodes):
        for i, c in enumerate(slices):
            if not x:
                break
            slices[i] = c ^ x
            x &= c
        if x:
            slices.append(x)
    classes = {0: nodes} if nodes else {}
    for i, s in enumerate(slices):
        split = {}
        for d, x in classes.items():
            high = x & s
            if high:
                split[d | 1 << i] = high
            if high != x:
                split[d] = x ^ high
        classes = split
    return classes


def component_count(n: int, nodes: int, linked: int) -> int:
    """How many components of the graph on the node set nodes meet linked,
    a subset of nodes: one flood from the lowest node of linked not yet
    reached per component."""
    member = _members(n)
    count = 0
    while linked:
        linked &= ~_flood(member, nodes, linked & -linked)
        count += 1
    return count


#: Binary digit -> byte of that value, turning bin() digits into bytes.
_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")

#: memoryview format of an unsigned machine word, by its width in bytes.
_WORD_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def node_fields(n: int, masks) -> memoryview:
    """Per subset s < 2**n, the int whose bit p is bit s of masks[p], for up
    to 64 lattice masks over n vertices, as a writable memoryview of machine
    words (width * 2**n bytes).

    Eight masks at a time become one plane, a byte per subset: the digits of
    each mask, least significant first, are turned into bytes of value 0 or
    1 and shifted to their bit of the byte.  The planes are interleaved as
    the bytes of words 1, 2, 4 or 8 bytes wide, a byte per plane rounded up."""
    planes = []
    for p, x in enumerate(masks):
        if p % 8 == 0:
            planes.append(0)
        digits = bin(x)[:1:-1].encode().translate(_DIGIT_BYTES)
        planes[-1] |= int.from_bytes(digits, "little") << p % 8
    width = next(w for w in (1, 2, 4, 8) if w >= len(planes))
    words = bytearray(width << n)
    for j, plane in enumerate(planes):
        at = j if sys.byteorder == "little" else width - 1 - j
        words[at::width] = plane.to_bytes(1 << n, "little")
    return memoryview(words).cast(_WORD_FORMATS[width])


def size_counts(n: int, table: int) -> list[int]:
    """How many subsets in table have each cardinality 0..n."""
    size = _sizes(n)
    return [(table & x).bit_count() for x in size]


def ordered_subsets(n: int, x: int):
    """Yield the subsets in the lattice mask x by (cardinality, mask).

    Set bits are found with str.find over each size class's binary digits,
    since peeling the lowest bit off a 2**n-bit int costs time linear in its
    length."""
    size = _sizes(n)
    for c in size:
        digits = bin(x & c)[:1:-1]  # least significant digit first
        s = digits.find("1")
        while s >= 0:
            yield s
            s = digits.find("1", s + 1)


def domination_profile(g: SeedGraph, table: int | None = None) -> DominationProfile:
    """Compute gamma, the upper domination number, per-size counts, and the
    universal domination threshold (least t with every t-subset dominating),
    which is n - delta: a set fails to dominate iff it lies in V - N[v] for
    some v.  table is g's dominating_table, computed here if not given."""
    n = g.n
    if n == 0:
        raise EmptyGraph("domination profile undefined on the empty graph")
    if table is None:
        table = dominating_table(g)
    member, size = _lattice(n)
    counts = size_counts(n, table)
    gamma = next(c for c in range(n + 1) if counts[c])
    universal_threshold = n - min(map(g.degree, range(n)))
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


#: Byte -> the ASCII binary digit of its lowest bit.
_LOWEST_BIT_DIGIT = bytes(b"01"[i & 1] for i in range(256))


@cache
def _chunk_lattice(n: int, b: int):
    """What every chunk of 2**b labeled graphs on n vertices shares.

    Graph i has low edge e < b iff bit e of i is set, so bit i * 2**n + S
    of the chunk is the subset S + i * 2**n of n + b vertices: the chunk's
    member masks are the first n of _members(n + b), its low edges' masks
    the other b, and their per-graph bits _members(b); no size class of
    n + b or b vertices is built.  The size classes of n vertices are
    repeated in each block.  cover[v] is member[v] plus member[u] in the
    blocks of the graphs with edge uv.
    """
    member = _members(n + b)
    sizes = [_repeat(x, 1 << n, 1 << n + b) for x in _sizes(n)]
    covers = list(member[:n])
    for e, (u, v) in enumerate(vertex_pairs(n)[:b]):
        covers[u] |= member[v] & member[n + e]
        covers[v] |= member[u] & member[n + e]
    return (member[:n], sizes), covers, _members(b)


class LabeledChunk:
    """Consecutive labeled graphs on n vertices on the (edge mask, subset) lattice.

    Graph i of the chunk is the one with edge mask first + i.  Its block of
    2**n lattice bits starts at bit i * 2**n, and bit i * 2**n + S of table
    is set iff S dominates graph i; lattice holds the member and size masks
    of _chunk_lattice.  The graphs share their high edges and run through
    every combination of the low ones.  A per-graph answer is an int
    whose bit i is graph i's: every has all count bits set, and edges[e]
    holds the graphs with the e-th pair of vertex_pairs(n).  Folds of the
    blocks give such answers: any, parity, and the threshold fold below_threshold.
    """

    __slots__ = ("n", "first", "count", "every", "edges", "table", "lattice")

    def __init__(self, n: int, first: int, b: int):
        lattice, covers, low_edges = _chunk_lattice(n, b)
        members = lattice[0]
        self.n = n
        self.first = first
        self.count = 1 << b
        self.every = (1 << self.count) - 1
        self.edges = list(low_edges)
        covers = covers[:]
        for e, (u, v) in enumerate(vertex_pairs(n)[b:], b):
            if first >> e & 1:
                covers[u] |= members[v]
                covers[v] |= members[u]
                self.edges.append(self.every)
            else:
                self.edges.append(0)
        self.table = reduce(and_, covers)
        self.lattice = lattice

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
        bits: _odd_nodes at k = n, whose member masks keep every shifted bit
        inside its own block."""
        return _odd_nodes(self.lattice, self.n, self.table, self.n, self.table)

    def below_threshold(self) -> int:
        """The graphs with gamma below the universal threshold t = n - delta:
        those with a dominating and a non-dominating c-set for some c.  A set
        fails to dominate iff it lies in V - N[v] for some v, so wide[c - 1],
        the graphs with a vertex of c or more non-neighbors, have the latter,
        and a fold per c = 1..n-1 finds the former."""
        sizes = self.lattice[1]
        counts = sliced_non_neighbors(self.n, self.edges, self.every, self.n - 1)
        wide = [reduce(or_, level) for level in zip(*counts)]
        return reduce(or_, (self.any(self.table & sizes[c]) & x for c, x in enumerate(wide, 1)), 0)

    def graphs(self, bits: int):
        """The graphs of the chunk whose bits are set, decoded in edge-mask
        order."""
        while bits:
            low = bits & -bits
            bits ^= low
            yield labeled_graph(self.n, self.first + low.bit_length() - 1)


class CoronaChunk(namedtuple("CoronaChunk", "n first every edges table")):
    """The coronas H o K_1 of consecutive labeled inner graphs H on n vertices,
    on the (edge mask, subset) lattice of their 2n vertices.  Graph i is the
    corona of the inner graph with edge mask first + i; its block of 2**(2n)
    lattice bits starts at bit i * 2**(2n), and bit i * 2**(2n) + S of table
    is set iff S dominates it.  every and edges are per-graph answers over
    the inner graphs, as LabeledChunk's."""

    __slots__ = ()


def _chunk_shape(n: int, order: int) -> tuple[int, int]:
    """The m pairs of n vertices, and the b low edges of a chunk of labeled
    graphs whose seeds have order vertices: 2**b seeds of 2**order lattice
    bits make about 2**CHUNK_BITS bits (all m edges if there are fewer, none
    at least)."""
    if not 1 <= n <= ENUMERATION_CAP:
        raise BoundExceeded(f"labeled sweeps support 1 <= n <= {ENUMERATION_CAP}, got {n}")
    m = len(vertex_pairs(n))
    return m, min(m, max(CHUNK_BITS - order, 0))


def labeled_chunks(n: int):
    """Every labeled graph on n vertices, in edge-mask order, as chunks of
    about 2**CHUNK_BITS lattice bits."""
    m, b = _chunk_shape(n, n)
    for first in range(0, 1 << m, 1 << b):
        yield LabeledChunk(n, first, b)


def corona_chunks(n: int):
    """The corona of every labeled inner graph on n vertices, in edge-mask
    order, as CoronaChunks of about 2**CHUNK_BITS lattice bits.  As in
    _chunk_lattice, the member masks of the 2n vertices are the first 2n of
    _members(2n + b), and the inner graphs' low edges the other b.  A table
    is the AND of the pendants' covers M_v' | M_v, taken once per n, and of
    the inner vertices' covers: M_v | M_v' plus M_u in the blocks of the
    graphs with low edge uv, also taken once, and M_u for each high edge uv
    that the chunk's graphs share.  The inner covers are ANDed in one at a
    time, so a chunk holds few masks at once."""
    m, b = _chunk_shape(n, 2 * n)
    member = _members(2 * n + b)
    covers = [member[v] | member[v + n] for v in range(n)]
    pendants = reduce(and_, covers)
    for e, (u, v) in enumerate(vertex_pairs(n)[:b]):
        covers[u] |= member[v] & member[2 * n + e]
        covers[v] |= member[u] & member[2 * n + e]
    every = (1 << (1 << b)) - 1
    for first in range(0, 1 << m, 1 << b):
        table = pendants
        for cover, high in zip(covers, labeled_graph(n, first).adj):  # first has no low edge
            for u in range(n):
                if high >> u & 1:
                    cover |= member[u]
            table &= cover
        edges = list(_members(b)) + [every * (first >> e & 1) for e in range(b, m)]
        yield CoronaChunk(n, first, every, edges, table)
