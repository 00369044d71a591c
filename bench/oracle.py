"""The benchmark's own checks of domrec's outputs; nothing here calls domrec.

Graphs are tuples of per-vertex neighbour bitmasks.  The formulations differ
from domrec's on purpose: domination is tested vertex by vertex, degrees are
counted move by move, and the circuit is replayed step by step.
"""

from __future__ import annotations

from math import comb


def vertex_pairs(n: int) -> list[tuple[int, int]]:
    """Vertex pairs in edge-mask bit order: (0,1), (0,2), ..., (1,2), ..."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def adjacency_from_mask(n: int, mask: int) -> tuple[int, ...]:
    adj = [0] * n
    for i, (u, v) in enumerate(vertex_pairs(n)):
        if (mask >> i) & 1:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return tuple(adj)


def is_connected(adj: tuple[int, ...]) -> bool:
    n = len(adj)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in range(n):
            if (adj[v] >> u) & 1 and u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == n


def dominates(adj: tuple[int, ...], s: int) -> bool:
    """Every vertex is in s or has a neighbour in s."""
    return all((s >> v) & 1 or adj[v] & s for v in range(len(adj)))


def unrestricted_eulerian(adj: tuple[int, ...]) -> bool:
    """Is D(G), over all dominating sets, Eulerian: every degree even and at
    most one component with an edge?"""
    n = len(adj)
    dom = [dominates(adj, s) for s in range(1 << n)]
    nodes = [s for s in range(1 << n) if dom[s]]
    for s in nodes:
        degree = sum(dom[s ^ (1 << v)] for v in range(n))
        if degree % 2:
            return False
    seen = set()
    nontrivial = 0
    for start in nodes:
        if start in seen:
            continue
        seen.add(start)
        stack = [start]
        has_edge = False
        while stack:
            s = stack.pop()
            for v in range(n):
                t = s ^ (1 << v)
                if dom[t]:
                    has_edge = True
                    if t not in seen:
                        seen.add(t)
                        stack.append(t)
        nontrivial += has_edge
    return nontrivial <= 1


def cocktail_adjacency(n: int, perm: list[int]) -> tuple[int, ...]:
    """K_n minus the perfect matching {2i, 2i+1}, vertex v renamed perm[v]."""
    adj = [0] * n
    for u in range(n):
        for v in range(n):
            if u != v and u // 2 != v // 2:
                adj[perm[u]] |= 1 << perm[v]
    return tuple(adj)


def cocktail_node_count(n: int) -> int:
    """Dominating sets of a cocktail party graph: all but the empty set and
    the n singletons."""
    return 2 ** n - n - 1


def cocktail_edge_count(n: int) -> int:
    """Each dominating c-set has n - c up-moves, all dominating."""
    return sum(
        (comb(n, c) - (n if c == 1 else 0) - (1 if c == 0 else 0)) * (n - c)
        for c in range(n + 1)
    )


def to_graph6(adj: tuple[int, ...]) -> str:
    """graph6 record: n + 63, then the upper triangle column by column, six
    bits per character."""
    n = len(adj)
    bits = [(adj[v] >> u) & 1 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[i:i + 6])), 2)) for i in range(0, len(bits), 6)
    )
    return chr(n + 63) + body


def parse_label(text: str) -> int:
    """'{0,3,5}' as a bitmask."""
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"not a vertex-set label: {text!r}")
    bits = 0
    for part in text[1:-1].split(","):
        if part:
            bits |= 1 << int(part)
    return bits


def circuit_problems(adj: tuple[int, ...], k: int, labels: list[str],
                     edge_count: int) -> list[str]:
    """Replay an Euler circuit of D_k(G) given as node labels.  It must be
    closed, have edge_count + 1 steps, flip one vertex per step, stay on
    dominating sets of size <= k, and use each edge once."""
    problems = []
    if len(labels) != edge_count + 1:
        problems.append(f"{len(labels)} steps for {edge_count} edges")
    if not labels or labels[0] != labels[-1]:
        problems.append("circuit not closed")
    masks = [parse_label(text) for text in labels]
    for s in set(masks):
        if s.bit_count() > k or not dominates(adj, s):
            problems.append(f"step on non-node {s:#x}")
            break
    used = set()
    for a, b in zip(masks, masks[1:]):
        if (a ^ b).bit_count() != 1:
            problems.append(f"step {a:#x} -> {b:#x} flips {(a ^ b).bit_count()} vertices")
            break
        edge = (a, b) if a < b else (b, a)
        if edge in used:
            problems.append(f"edge {a:#x} -- {b:#x} used twice")
            break
        used.add(edge)
    if len(used) != edge_count and not problems:
        problems.append(f"{len(used)} distinct edges, expected {edge_count}")
    return problems
