"""Domination tables on the subset lattice, and summary statistics.

A set of vertices is an int mask, bit v set iff v is a member: the nodes of
D_k and the subsets of the lattice below are such masks, and format_set
writes one as '{0,2}' from tables of labels; subset_labels writes all 2**n
at once, doubling a list of them per vertex.  A subset S dominates when the
union of closed neighborhoods of its members covers every vertex.  Questions
about all 2**n subsets at once are answered on the subset lattice: a set of
subsets is one int whose bit S stands for the subset with bitmask S, so a
whole-lattice question is a few bitwise operations on such ints instead of a
loop over the subsets.  This module is the one owner of that representation.
dominating_table ANDs, over the vertices v, the cover of N[v], the subsets
that meet it: up to n = 8 one lookup in a cover table of ORs of member
masks (Knuth, TAOCP 4A, 7.1.3), above it an OR of the masks of N[v]'s
members alone; domination_number reads gamma off the first size class
that meets a table.  D_k lives on the lattice too, unbuilt: bounded picks
its nodes, and lattice_eulerian reads their degree parities off the table
with the masks of _seed_lattice(n), one record per n built on first use,
then floods them (_flood: in-place vertex passes until one adds nothing);
lattice_eulerians does every k of a range at once.
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
mask of u and X_uv the graphs that have edge uv, and a field test or fold
of each graph's block of 2**n bits leaves its answer on the block's top bit.
Only this module knows a chunk's layout: connected, bipartite, degrees,
non_neighbors and cocktail_party fold the X_uv for all graphs at once
(bipartite_count folds bipartite with no chunk), below_threshold reads a
block only for the regular graphs (gamma <= n - Delta settles the others),
and graphs decodes the graphs of an answer.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from functools import cache, reduce
from itertools import compress, islice
from operator import and_, or_

from .errors import BoundBelowGamma, BoundExceeded, EmptyGraph
from .graphs import _UNITS, ENUMERATION_CAP, SeedGraph, labeled_graph, vertex_pairs

#: log2 of the lattice bits in one chunk of a labeled sweep: 2**17 bits, so
#: each of a chunk's masks is a 16 KiB int.  A chunk on n vertices holds
#: 2**(CHUNK_BITS - n) graphs (all of them if there are fewer, one at least),
#: so a sweep's memory does not grow with its number of graphs.
CHUNK_BITS = 17

#: Largest n whose cover table, 2**n entries of 2**n bits, fits in a chunk's
#: 2**CHUNK_BITS bits: the largest n whose _seed_lattice holds one.
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


def format_sets(n: int, masks):
    """format_set(s) for each vertex mask s of n <= 26 vertices, as it is
    read; the second label table is built only for n > 13."""
    low, high = _chunk_labels(0), _chunk_labels(1) if n > 13 else ("",)
    return (f"{{{(low[s & 0x1FFF] + high[s >> 13])[1:]}}}" for s in masks)


def subset_labels(n: int) -> list[str]:
    """format_set(s) for every s < 2**n in mask order, anew on each call: the
    first label table braced, or past 13 vertices (not to hold that table
    too) a list doubled from '{}' by each v, v appended to every label."""
    if n <= 13:
        return [f"{{{x[1:]}}}" for x in _chunk_labels(0)[:1 << n]]
    labels = ["{}"]
    for v in range(n):
        end = f",{v}}}"
        labels += [f"{{{v}}}"] + [x.replace("}", end) for x in islice(labels, 1, None)]
    return labels


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


_SeedLattice = namedtuple("_SeedLattice", "member steps size flip cover")


@cache  # kept per n: flip and, up to n = 8, the cover table, past _members(n) and _sizes(n)
def _seed_lattice(n: int) -> _SeedLattice:
    """What a table or verdict on a seed of n vertices reads: the member
    masks; steps, (2**u, member[u]) per vertex u; the size classes; flip,
    those c with n - c odd, whatever k is; and up to n = _TABLE_N, cover[T],
    the OR of member[u] over the bits u of T (17 KiB at n = 8), else None."""
    member, size = _members(n), _sizes(n)
    cover = None
    if n <= _TABLE_N:
        cover = (0,)
        for x in member:
            cover += tuple(e | x for e in cover)
    return _SeedLattice(member, tuple(zip(_UNITS, member)), size,
                        reduce(or_, size[(n + 1) & 1 :: 2], 0), cover)


def dominating_table(g: SeedGraph) -> int:
    """The dominating sets of g as one int: bit S is set iff S dominates.

    S dominates iff it meets the closed neighborhood N[v] of every vertex v,
    so the table is the AND over v of the cover of N[v], the OR of member[u]
    over u in N[v].  Up to n = _TABLE_N each cover is one entry of
    _seed_lattice(n).cover; above it, where a table would outgrow a chunk,
    the masks of N[v]'s members alone, picked by its binary digits, are ORed
    from the first one's mask (no initial value), so none is copied.
    """
    n = g.n
    table = (1 << (1 << n)) - 1  # with no vertices, the empty set dominates
    if n <= _TABLE_N:
        cover = _seed_lattice(n).cover
        for nbhd in g.closed_neighborhoods():
            table &= cover[nbhd]
        return table
    member = _members(n)
    for nbhd in g.closed_neighborhoods():  # never empty, as N[v] holds v
        table &= reduce(or_, compress(member, bin(nbhd)[:1:-1].encode().translate(_DIGIT_BYTES)))
    return table


def _removable(member, table: int):
    """Per vertex u, one mask at a time, the subsets S that contain u and
    whose deletion S - {u} is in table: the one-vertex up-shift, the bits of
    table moved up by 2**u and kept where u is a member."""
    for u, x in enumerate(member):
        yield (table << (1 << u)) & x


def bounded(n: int, table: int, k: int) -> int:
    """The nodes of D_k: the sets in table of cardinality <= k.  Raises
    ValueError for k outside [0, n] before any cache read (the CLI checks
    --k first)."""
    if not 0 <= k <= n:
        raise ValueError(f"k must be in [0, {n}], got {k}")
    return table if k == n else table & reduce(or_, _sizes(n)[: k + 1])


def _odd_nodes(steps, table: int, flip: int, nodes: int) -> int:
    """The odd-degree nodes of D_k among nodes, the sets of table of
    cardinality <= k, on the (2**u, member[u]) steps of a seed or a chunk.
    The degree of a node S is its removable-member count plus, below the
    bound, one up-move per outside vertex; its parity is the XOR of the
    removable masks, flipped on flip, the size classes c < k with n - c odd."""
    for shift, x in steps:
        flip ^= (table << shift) & x
    return flip & nodes


def _flood(member, nodes: int, reached: int) -> int:
    """The nodes that flips from reached reach, reached included.  A pass
    flips each vertex u in turn, in place: the sets of reached that contain
    u drop it (a shift down by 2**u), the others add it (a shift up), and
    the nodes landed on join reached before the next vertex is flipped.  So
    one pass follows any path whose flips come in vertex order, where a
    breadth-first step takes one flip.  Only flips of reached nodes add
    nodes, and a pass that adds nothing leaves no flip out of reached: the
    passes stop at the breadth-first flood's fixpoint."""
    while True:
        before = reached
        for u, x in enumerate(member):
            down = reached & x
            reached |= (down >> (1 << u) | (reached ^ down) << (1 << u)) & nodes
        if reached == before:
            return reached


def lattice_eulerian(n: int, table: int, k: int) -> bool:
    """Whether D_k is Eulerian (every degree even, at most one component with
    edges), decided on the lattice of an up-closed table on n vertices
    without building D_k: the parity flip at k is _seed_lattice(n)'s, less
    class k when n - k is odd, and the nodes with an edge, the OR of the
    flip masks, must be one component.

    Raises ValueError for k outside [0, n] and BoundBelowGamma when no set
    of cardinality <= k is in table, both before any record is read.
    """
    nodes = table if k == n else bounded(n, table, k)
    if not nodes:
        raise BoundBelowGamma(f"no dominating set of cardinality <= {k}")
    _, steps, size, flip, _ = _seed_lattice(n)
    odd = _odd_nodes(steps, table, flip ^ size[k] if (n - k) & 1 else flip, nodes)
    return not odd and component_count(n, nodes, reduce(or_, flip_masks(n, nodes), 0)) < 2


def lattice_eulerians(n: int, table: int, ks: range) -> list[bool]:
    """lattice_eulerian at each k of ks, consecutive bounds, in one pass: the
    removable XOR is taken once, each k adds class k to the nodes and toggles
    it in the flip if n - k is odd, and only a k with no odd node is flooded.
    Raises as lattice_eulerian does at the first or last k, before any read."""
    if not ks:
        return []
    nodes = bounded(n, table, ks[0])
    if ks[-1] > n:
        raise ValueError(f"k must be in [0, {n}], got {ks[-1]}")
    if not nodes:
        raise BoundBelowGamma(f"no dominating set of cardinality <= {ks[0]}")
    _, steps, size, flip, _ = _seed_lattice(n)
    parity, verdicts = _odd_nodes(steps, table, flip, -1), []
    for k in ks:
        nodes |= table & size[k]
        odd = parity ^ size[k] if (n - k) & 1 else parity
        verdicts.append(not (odd & nodes) and component_count(
            n, nodes, reduce(or_, flip_masks(n, nodes), 0)) < 2)
    return verdicts


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
    a subset of nodes: per component, one _flood from the lowest node of
    linked not yet reached, whose reach leaves linked."""
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


def domination_number(n: int, table: int) -> int:
    """gamma of a table on n vertices: the least c whose size class meets it."""
    return next(c for c, x in enumerate(_sizes(n)) if table & x)


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
    member, size = _members(n), _sizes(n)
    counts = size_counts(n, table)
    gamma = next(c for c in range(n + 1) if counts[c])
    universal_threshold = n - min(map(g.degree, range(n)))
    minimal = table & ~reduce(or_, _removable(member, table))
    upper_gamma = max(c for c, x in enumerate(size) if minimal & x)
    return DominationProfile(gamma=gamma, upper_gamma=upper_gamma, counts_by_size=tuple(counts),
                             total_count=sum(counts), universal_threshold=universal_threshold,
                             well_dominated=gamma == upper_gamma)


# ---------------------------------------------------------------------------
# Labeled sweeps on the (edge mask, subset) lattice
# ---------------------------------------------------------------------------


#: Byte -> the ASCII binary digit of whether it is nonzero.
_NONZERO_DIGIT = bytes(b"01"[i > 0] for i in range(256))


@cache
def _chunk_lattice(n: int, b: int):
    """What every chunk of 2**b labeled graphs on n vertices shares.

    Graph i has low edge e < b iff bit e of i is set, so bit i * 2**n + S of
    the chunk is the subset S + i * 2**n of n + b vertices: the chunk's
    member masks are the first n of _members(n + b), its low edges' masks
    the other b, and their per-graph bits _members(b); no size class of
    n + b or b vertices is built.  The size classes of n vertices, and
    _odd_nodes' flip at k = n, are repeated in each block.  cover[v] is
    member[v] plus member[u] in the blocks of the graphs with edge uv.
    Last: ones and high, the bottom and top bit of each block.
    """
    member = _members(n + b)
    sizes = [_repeat(x, 1 << n, 1 << n + b) for x in _sizes(n)]
    flip = reduce(or_, sizes[(n + 1) & 1 : n : 2], 0)
    covers = list(member[:n])
    for e, (u, v) in enumerate(vertex_pairs(n)[:b]):
        covers[u] |= member[v] & member[n + e]
        covers[v] |= member[u] & member[n + e]
    return (member[:n], sizes), covers, _members(b), flip, sizes[0], sizes[n]


@cache
def _colourings(n: int, b: int) -> tuple[tuple[int, int], ...]:
    """Per 2-colouring of n vertices that gives vertex 0 colour 0, for chunks
    of 2**b graphs: the edge mask of the pairs inside a colour class with
    index >= b, and the graphs whose low edges miss those with index < b."""
    low_edges, every = _members(b), (1 << (1 << b)) - 1
    insides = [[not (c >> u ^ c >> v) & 1 for u, v in vertex_pairs(n)] for c in range(0, 1 << n, 2)]
    return tuple((sum(x << e for e, x in enumerate(inside[b:], b)),
                  every & ~reduce(or_, compress(low_edges, inside), 0)) for inside in insides)


def _bipartite(n: int, first: int, b: int) -> int:
    """The bipartite graphs of edge masks first + i, i < 2**b, as per-graph bits:
    per colouring (_colourings) with no high edge of first inside a class, its graphs."""
    return reduce(or_, (low for high, low in _colourings(n, b) if not first & high), 0)


class LabeledChunk:
    """Consecutive labeled graphs on n vertices on the (edge mask, subset)
    lattice.

    Graph i of the chunk is the one with edge mask first + i.  Its block of
    2**n lattice bits starts at bit i * 2**n, and bit i * 2**n + S of table
    is set iff S dominates graph i; lattice and flip hold the member and
    size masks and parity flip of _chunk_lattice.  The graphs share their
    high edges and run through every combination of the low ones.  A
    per-graph answer is an int whose bit i is graph i's: every has all
    count bits set, and edges[e] holds the graphs with the e-th pair of
    vertex_pairs(n).  Tests of the blocks, with the field masks ones and
    high, give such answers on each block's top bit: any, parity and
    odd_degree_nodes.  Folds of edges give graphs' predicates bit-sliced,
    connected, bipartite, degrees, non_neighbors and cocktail_party, and
    below_threshold tests the blocks of the regular graphs alone, as the
    binary degree slices find them.  graphs decodes the graphs of an
    answer.
    """

    __slots__ = ("n", "first", "count", "every", "edges", "table", "lattice", "flip", "ones",
                 "high")

    def __init__(self, n: int, first: int, b: int):
        lattice, covers, low_edges, self.flip, self.ones, self.high = _chunk_lattice(n, b)
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

    def _highest(self, x: int) -> int:
        """Per graph, the top bit of its block of x.  A block of 8 bits or
        more ends a byte, so the bytes are taken at a stride of one block and
        each becomes the binary digit of whether it is nonzero; a chunk of
        narrower blocks (n < 3) is at most 8 bits, read digit by digit."""
        block, x = 1 << self.n, x & self.high
        width = block * self.count
        if block < 8:
            return int(format(x, f"0{width}b")[::block], 2)
        data = x.to_bytes(width // 8, "little")[block // 8 - 1 :: block // 8]
        return int(data.translate(_NONZERO_DIGIT)[::-1], 2)

    def any(self, x: int) -> int:
        """Per graph, whether its block of the lattice mask x has a set bit, by
        a broadword field test (Knuth, TAOCP 4A, 7.1.3): the top bit, set and
        less one, stays iff a lower bit is set, and x's own is ORed back.  An
        empty x, as every up-closure gap is, skips the chunk-wide test."""
        return self._highest((x | self.high) - self.ones | x) if x else 0

    def parity(self, x: int) -> int:
        """Per graph, the parity of the set bits in its block of x: an XOR
        fold by left shifts, leaving each block's parity on its top bit."""
        for s in range(self.n):
            x ^= x << (1 << s)
        return self._highest(x)

    def odd_degree_nodes(self) -> int:
        """The odd-degree nodes of each graph's unrestricted D(G), as lattice
        bits: _odd_nodes at k = n, whose member masks keep every shifted bit
        inside its own block."""
        return _odd_nodes(zip(_UNITS, self.lattice[0]), self.table, self.flip, self.table)

    def below_threshold(self) -> int:
        """The graphs with gamma below the universal threshold t = n - delta.

        A vertex of maximum degree Delta dominates with its n - 1 - Delta
        non-neighbors, so gamma <= n - Delta (Berge, 1962), below t wherever
        Delta > delta: every graph that is not regular is below.  A graph is
        regular iff every vertex has each bit of the degrees slices or none
        does.  A regular graph with L = n - 1 - deg (read off vertex 0's
        slices) is below iff it has a dominating L-set, as its table is
        up-closed: a test of size class L on its block of one to_bytes.  L = 0
        is never below, nor is any graph on n < 3 vertices, where gamma = t."""
        n = self.n
        if n < 3:
            return 0
        slices = self.degrees()
        below = reduce(or_, (reduce(and_, s) ^ reduce(or_, s) for s in zip(*slices)))
        regular = self.every & ~below
        if regular:
            step, size = 1 << n - 3, _sizes(n)  # bytes a block
            data = self.table.to_bytes(step * self.count, "little")
            while regular:
                i = (regular & -regular).bit_length() - 1
                regular &= regular - 1
                level = n - 1 - sum((s >> i & 1) << j for j, s in enumerate(slices[0]))
                if level and int.from_bytes(data[i * step : i * step + step], "little") & size[level]:
                    below |= 1 << i
        return below

    def connected(self) -> int:
        """The connected graphs: reach[v] holds the graphs in which v is
        reachable from vertex 0, grown edge by edge until stable."""
        reach = [self.every] + [0] * (self.n - 1)
        while True:
            before = reach[:]
            for (u, v), x in zip(vertex_pairs(self.n), self.edges):
                reach[v] |= reach[u] & x
                reach[u] |= reach[v] & x
            if reach == before:
                return reduce(and_, reach)

    def bipartite(self) -> int:
        """The bipartite graphs of the chunk, by _bipartite."""
        return _bipartite(self.n, self.first, self.count.bit_length() - 1)

    def degrees(self) -> list[list[int]]:
        """Per vertex v, slices j < width = (n - 1).bit_length(): bit i is bit j
        of v's degree in graph i, each edge added by a half-adder chain at both
        ends (sideways addition, Knuth, TAOCP 4A, 7.1.3)."""
        slices = [[0] * (self.n - 1).bit_length() for _ in range(self.n)]
        for (u, v), x in zip(vertex_pairs(self.n), self.edges):
            for counter in (slices[u], slices[v]):
                j, carry = 0, x
                while carry:  # no carry leaves the top slice, as deg < 2**width
                    counter[j], carry = counter[j] ^ carry, counter[j] & carry
                    j += 1
        return slices

    def non_neighbors(self, levels: int) -> list[list[int]]:
        """Per vertex v and count j < levels, the graphs in which v has at
        least j + 1 non-neighbors: a unary counter per vertex, moved up one
        level by each missing pair at v and saturating at the top level."""
        at_least = [[0] * levels for _ in range(self.n)]
        steps = range(levels - 1, 0, -1)
        for (u, v), x in zip(vertex_pairs(self.n), self.edges):
            missing = self.every & ~x
            for counter in (at_least[u], at_least[v]):
                for j in steps:
                    counter[j] |= counter[j - 1] & missing
                counter[0] |= missing
        return at_least

    def cocktail_party(self) -> int:
        """The cocktail party graphs, by the rule of
        graphs.induces_cocktail_party: even n >= 4 and exactly one
        non-neighbor per vertex, read off two levels of the counters."""
        if self.n < 4 or self.n % 2:
            return 0
        return reduce(and_, (one & ~two for one, two in self.non_neighbors(2)))

    def graphs(self, bits: int):
        """The labeled graphs of the chunk whose bits are set, decoded in
        edge-mask order."""
        while bits:
            low = bits & -bits
            bits ^= low
            yield labeled_graph(self.n, self.first + low.bit_length() - 1)


def labeled_chunks(n: int, make=LabeledChunk):
    """Every labeled graph on n vertices, in edge-mask order, as chunks of
    2**b graphs that make about 2**CHUNK_BITS lattice bits (all m edges if
    there are fewer, none at least): make(n, first, b) per chunk."""
    if not 1 <= n <= ENUMERATION_CAP:
        raise BoundExceeded(f"labeled sweeps support 1 <= n <= {ENUMERATION_CAP}, got {n}")
    m = len(vertex_pairs(n))
    b = min(m, max(CHUNK_BITS - n, 0))
    for first in range(0, 1 << m, 1 << b):
        yield make(n, first, b)


def bipartite_count(n: int) -> int:
    """How many labeled graphs on n vertices are bipartite, with no chunk built."""
    return sum(x.bit_count() for x in labeled_chunks(n, _bipartite))
