"""Dominating-set predicates, enumeration, and summary statistics.

A set of vertices is an int mask, bit v set iff v is a member: the nodes of
D_k and the sets the predicates below take are such masks, and format_set
writes one as '{0,2}'.  A subset S dominates when the union of closed
neighborhoods of its members covers every vertex.  Questions about all 2**n
subsets at once are answered on the subset lattice: a set of subsets is one
int whose bit S stands for the subset with bitmask S, so a whole-lattice
question is a few bitwise operations on such ints instead of a loop over the
subsets.  This module is the one owner of that representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from math import comb
from operator import or_, xor

from .errors import DimensionMismatch, EmptyGraph
from .graphs import SeedGraph


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


def removable_masks(n: int, table: int) -> list[int]:
    """Per vertex u, the subsets S that contain u and whose deletion S - {u}
    is in table: the bits of table moved up by u and kept where u is a member."""
    member, _ = _lattice(n)
    return [(table << (1 << u)) & x for u, x in enumerate(member)]


def odd_degree_nodes(n: int, table: int, k: int) -> int:
    """The odd-degree nodes of D_k, as a lattice mask over the domination
    table of a seed on n vertices.

    The degree of a node S is its removable-member count plus, below the
    bound, one up-move per outside vertex; its parity is the XOR of the
    removable masks, flipped on each size class c < k with n - c odd."""
    _, size = _lattice(n)
    parity = reduce(xor, removable_masks(n, table), 0)
    parity ^= reduce(or_, (x for c, x in enumerate(size[:k]) if (n - c) & 1), 0)
    return parity & table & reduce(or_, size[: k + 1])


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


def domination_profile(g: SeedGraph) -> DominationProfile:
    """Compute gamma, the upper domination number, per-size counts, and the
    universal domination threshold (least t with every t-subset dominating)."""
    n = g.n
    if n == 0:
        raise EmptyGraph("domination profile undefined on the empty graph")
    table = dominating_table(g)
    counts = size_counts(n, table)
    gamma = next(c for c in range(n + 1) if counts[c])
    universal_threshold = next(t for t in range(n + 1) if counts[t] == comb(n, t))
    minimal = table & ~reduce(or_, removable_masks(n, table))
    upper_gamma = max(c for c, x in enumerate(_lattice(n)[1]) if minimal & x)
    return DominationProfile(
        gamma=gamma,
        upper_gamma=upper_gamma,
        counts_by_size=tuple(counts),
        total_count=sum(counts),
        universal_threshold=universal_threshold,
        well_dominated=gamma == upper_gamma,
    )
