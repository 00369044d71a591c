"""Seed graphs: bitmask representation, family generators, labeled graphs
by edge mask, graph6, and the text grammar of graph specs.

Vertices are the integers 0..n-1 and adjacency is stored as one bitmask per
vertex, so a graph on n vertices fits in n machine words.  The hard cap
HARD_CAP keeps every subset of vertices representable as a single int.  A
SeedGraph is a slotted, immutable value that pickles and copies.

The complete, biclique, star, cocktail and turan families are complete
multipartite graphs, built by one builder from their part sizes; the
cocktail party rule is one predicate on vertex masks,
induces_cocktail_party.

FamilySpec.spec_string prints the spec grammar and parse_graph_spec reads it,
plus the g6:<record> and file:<path> (edge list) forms.  A union splits at
each '+' outside parentheses, and a part whose own text holds a '+' (a union,
or a corona of one) is printed in parentheses.  A seed built from a spec is
named by its canonical spec, a g6 part as g6:<to_graph6 record>.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import cache, reduce
from operator import and_, or_

from .errors import (
    CapacityExceeded,
    GraphSpecError,
    InvalidFamilyParameters,
    MalformedGraph6,
)

#: Largest supported vertex count.  Subset enumeration is 2**n, and 2**26 is
#: the desk-scale ceiling this package is designed for.
HARD_CAP = 26

#: 1 << v for every vertex v a seed can have.
_UNITS = tuple(1 << v for v in range(HARD_CAP))

#: Largest n for exhaustive labeled-graph enumeration (2**21 graphs at n=7).
ENUMERATION_CAP = 7


class SeedGraph:
    """Simple undirected graph as per-vertex neighbor bitmasks.

    adj[v] has bit u set iff uv is an edge.  A seed is an immutable value:
    it compares and hashes by (n, adj), its name aside, is safe to share
    across threads, and pickles and copies.  validate=False skips the
    adjacency checks for builders whose masks are correct by construction.
    """

    __slots__ = ("n", "adj", "name")

    def __init__(self, n: int, adj: Iterable[int], name: str | None = None, validate: bool = True):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        _check_cap(n)
        adj = tuple(adj)
        if len(adj) != n:
            raise ValueError(f"expected {n} adjacency masks, got {len(adj)}")
        if validate:
            limit = 1 << n
            for v, mask in enumerate(adj):
                if mask < 0 or mask >= limit:
                    raise ValueError(f"adjacency mask of vertex {v} out of range")
                if (mask >> v) & 1:
                    raise ValueError(f"self-loop at vertex {v}")
            for u in range(n):
                for v in range(u + 1, n):
                    if ((adj[u] >> v) & 1) != ((adj[v] >> u) & 1):
                        raise ValueError(f"asymmetric adjacency between {u} and {v}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)
        object.__setattr__(self, "name", name)

    def __setattr__(self, attr: str, value):
        raise AttributeError(f"cannot assign {attr!r}: SeedGraph is immutable")

    def __delattr__(self, attr: str):
        raise AttributeError(f"cannot delete {attr!r}: SeedGraph is immutable")

    def __eq__(self, other):
        if other.__class__ is not SeedGraph:
            return NotImplemented
        return (self.n, self.adj) == (other.n, other.adj)

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __reduce__(self):
        return SeedGraph, (self.n, self.adj, self.name, False)

    @classmethod
    def from_edges(cls, n: int, edges, name: str | None = None) -> "SeedGraph":
        _check_cap(n)  # before [0] * n and 1 << v, which a huge n would exhaust
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise ValueError(f"bad edge ({u}, {v}) for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, adj, name=name, validate=False)

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Edge list as (u, v) pairs with u < v, sorted."""
        return [(u, v) for u, v in vertex_pairs(self.n) if self.adj[u] >> v & 1]

    def closed_neighborhoods(self) -> Iterator[int]:
        """adj[v] | {v} for every v in turn, the unit of domination checks."""
        return map(or_, self.adj, _UNITS)

    def __repr__(self) -> str:
        label = self.name or f"{self.n}v{self.edge_count()}e"
        return f"SeedGraph({label})"


#: Argument count of each family kind that takes integer arguments.
ARITY = {"path": 1, "cycle": 1, "complete": 1, "complete_bipartite": 2, "star": 1,
         "cocktail": 1, "turan": 2}

#: Spec text names that differ from the kind; the text name is printed, and
#: both names are read.
_TEXT_NAME = {"complete_bipartite": "biclique"}
_KIND = {text: kind for kind, text in _TEXT_NAME.items()}


class FamilySpec(namedtuple("FamilySpec", "kind args parts", defaults=((), ()))):
    """A named graph family instance: kind plus integer or nested arguments."""

    __slots__ = ()

    @classmethod
    def path(cls, n: int) -> "FamilySpec":
        return cls("path", (n,))

    @classmethod
    def cycle(cls, n: int) -> "FamilySpec":
        return cls("cycle", (n,))

    @classmethod
    def complete(cls, n: int) -> "FamilySpec":
        return cls("complete", (n,))

    @classmethod
    def complete_bipartite(cls, m: int, n: int) -> "FamilySpec":
        return cls("complete_bipartite", (m, n))

    @classmethod
    def star(cls, n: int) -> "FamilySpec":
        return cls("star", (n,))

    @classmethod
    def cocktail(cls, n: int) -> "FamilySpec":
        return cls("cocktail", (n,))

    @classmethod
    def turan(cls, n: int, r: int) -> "FamilySpec":
        return cls("turan", (n, r))

    @classmethod
    def corona(cls, inner: "FamilySpec") -> "FamilySpec":
        return cls("corona", (), (inner,))

    @classmethod
    def disjoint_union(cls, *parts: "FamilySpec") -> "FamilySpec":
        return cls("disjoint_union", (), tuple(parts))

    def spec_string(self) -> str:
        """Round-trippable textual form, e.g. 'biclique:3,4' or 'corona:path:3'."""
        if self.kind == "corona":
            return f"corona:{self.parts[0].spec_string()}"
        if self.kind == "disjoint_union":
            return _union_text(p.spec_string() for p in self.parts)
        return f"{_TEXT_NAME.get(self.kind, self.kind)}:{','.join(map(str, self.args))}"


def _union_text(parts) -> str:
    """'union:' and the parts joined by '+', a part in parentheses when its
    own text holds a '+'."""
    return "union:" + "+".join(f"({p})" if "+" in p else p for p in parts)


def _require(cond: bool, message: str):
    if not cond:
        raise InvalidFamilyParameters(message)


def make_family(spec: FamilySpec) -> SeedGraph:
    """Build the canonical labeled instance of a graph family.

    Labelings are fixed: path/cycle vertices in order, bipartite parts
    X = 0..m-1 then Y, cocktail partner pairs (2i, 2i+1), corona pendant n+i
    attached to i, disjoint union relabeling later parts by offset.
    """
    kind, args = spec.kind, spec.args
    if kind in ARITY:
        arity = ARITY[kind]
        name = _TEXT_NAME.get(kind, kind)
        _require(len(args) == arity, f"{name} takes {arity} argument(s), got {len(args)}")
        n = args[0]
    if kind == "path":
        _require(n >= 1, f"path needs n >= 1, got {n}")
        _check_cap(n)
        g = SeedGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    elif kind == "cycle":
        _require(n >= 3, f"cycle needs n >= 3, got {n}")
        _check_cap(n)
        g = SeedGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    elif kind == "complete":
        _require(n >= 1, f"complete needs n >= 1, got {n}")
        _check_cap(n)
        g = _multipartite([1] * n)
    elif kind == "complete_bipartite":
        m, n = args
        _require(m >= 1 and n >= 1, f"biclique needs m, n >= 1, got {m}, {n}")
        _check_cap(m + n)
        g = _multipartite([m, n])
    elif kind == "star":
        _require(n >= 1, f"star needs n >= 1, got {n}")
        g = make_family(FamilySpec.complete_bipartite(1, n))
    elif kind == "cocktail":
        _require(n >= 4 and n % 2 == 0, f"cocktail needs even n >= 4, got {n}")
        _check_cap(n)
        g = _multipartite([2] * (n // 2))
    elif kind == "turan":
        r = args[1]
        _require(1 <= r <= n, f"turan needs n >= r >= 1, got {n}, {r}")
        _check_cap(n)
        # The first n % r parts get the extra vertex.
        g = _multipartite([n // r + (1 if i < n % r else 0) for i in range(r)])
    elif kind == "corona":
        _require(len(spec.parts) == 1, f"corona takes 1 inner family, got {len(spec.parts)}")
        inner = make_family(spec.parts[0])
        _require(inner.n >= 2, f"corona needs an inner graph on >= 2 vertices, got {inner.n}")
        g = corona_of(inner)
    elif kind == "disjoint_union":
        _require(len(spec.parts) >= 2, "disjoint union needs at least two parts")
        g = disjoint_union([make_family(p) for p in spec.parts])
    else:
        raise InvalidFamilyParameters(f"unknown family kind {kind!r}")
    return _named(g, spec.spec_string())


def _named(g: SeedGraph, name: str) -> SeedGraph:
    return SeedGraph(g.n, g.adj, name=name, validate=False)


def _multipartite(sizes: list[int]) -> SeedGraph:
    """Complete multipartite graph whose parts are contiguous vertex ranges
    of the given sizes, in order: each vertex is adjacent to every vertex
    outside its own part."""
    n = sum(sizes)
    full = (1 << n) - 1
    adj = []
    start = 0
    for size in sizes:
        part = ((1 << size) - 1) << start
        adj.extend(full ^ part for _ in range(size))
        start += size
    return SeedGraph(n, adj, validate=False)


def _check_cap(n: int):
    """The one vertex-cap check: CapacityExceeded past HARD_CAP vertices."""
    if n > HARD_CAP:
        raise CapacityExceeded(f"{n} vertices exceeds the cap of {HARD_CAP}")


def corona_of(g: SeedGraph) -> SeedGraph:
    """Attach a pendant vertex n+i to each vertex i of g."""
    n = g.n
    _check_cap(2 * n)
    adj = [g.adj[v] | (1 << (n + v)) for v in range(n)]
    adj.extend(1 << v for v in range(n))
    return SeedGraph(2 * n, adj, validate=False)


def disjoint_union(graphs: list[SeedGraph]) -> SeedGraph:
    """Disjoint union, relabeling each component by the running vertex offset."""
    total = sum(g.n for g in graphs)
    _check_cap(total)
    adj = []
    offset = 0
    for g in graphs:
        adj.extend(mask << offset for mask in g.adj)
        offset += g.n
    return SeedGraph(total, adj, validate=False)


def is_complete(g: SeedGraph) -> bool:
    full = (1 << g.n) - 1
    return all(g.adj[v] == full ^ (1 << v) for v in range(g.n))


def induces_cocktail_party(g: SeedGraph, block: int) -> bool:
    """True iff the vertices of the mask block induce a cocktail party graph
    (a complete graph of even order >= 4 minus a perfect matching): block
    has an even number >= 4 of vertices, and each has exactly one
    non-neighbor in block.  Non-adjacency is symmetric, so one non-neighbor
    each already pairs the vertices up."""
    size = block.bit_count()
    if size < 4 or size % 2:
        return False
    for v in range(g.n):
        if (block >> v) & 1 and (block & ~g.adj[v] & ~(1 << v)).bit_count() != 1:
            return False
    return True


def is_cocktail_party(g: SeedGraph) -> bool:
    """True iff g is a complete graph of even order >= 4 minus a perfect matching."""
    return induces_cocktail_party(g, (1 << g.n) - 1)


def _component_mask(adj, start: int) -> int:
    """Bitmask of vertices reachable from start."""
    seen = 1 << start
    frontier = seen
    while frontier:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            m ^= low
            nxt |= adj[low.bit_length() - 1]
        frontier = nxt & ~seen
        seen |= nxt
    return seen


def connected_components(g: SeedGraph) -> list[int]:
    """Vertex masks of the connected components, ordered by lowest vertex."""
    out = []
    remaining = (1 << g.n) - 1
    while remaining:
        start = (remaining & -remaining).bit_length() - 1
        comp = _component_mask(g.adj, start)
        out.append(comp)
        remaining &= ~comp
    return out


def is_connected(g: SeedGraph) -> bool:
    if g.n <= 1:
        return True
    return _component_mask(g.adj, 0) == (1 << g.n) - 1


@cache
def vertex_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The pairs of n vertices in lexicographic order (0,1), (0,2), ...,
    (0,n-1), (1,2), ...: bit e of an edge mask stands for the e-th pair."""
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


def labeled_graph(n: int, edge_mask: int) -> SeedGraph:
    """The labeled graph on n vertices whose edge mask is edge_mask, bit e
    standing for the e-th pair of vertex_pairs(n)."""
    _check_cap(n)
    pairs = vertex_pairs(n)
    if not 0 <= edge_mask < 1 << len(pairs):
        raise ValueError(f"edge mask {edge_mask:#x} out of range for n={n}")
    adj = [0] * n
    while edge_mask:
        low = edge_mask & -edge_mask
        edge_mask ^= low
        u, v = pairs[low.bit_length() - 1]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return SeedGraph(n, adj, validate=False)


# Bit-sliced twins of the predicates above decide one question for a batch of
# graphs on n vertices at once.  Graph i of the batch is bit i of an int:
# edges[e] has bit i set iff graph i has the e-th pair of vertex_pairs(n), and
# every has a bit for each graph of the batch.


def sliced_connected(n: int, edges: list[int], every: int) -> int:
    """The graphs of the batch that are connected: reach[v] holds the graphs
    in which v is reachable from vertex 0, grown edge by edge until stable."""
    pairs = vertex_pairs(n)
    reach = [every] + [0] * (n - 1)
    while True:
        before = reach[:]
        for (u, v), x in zip(pairs, edges):
            reach[v] |= reach[u] & x
            reach[u] |= reach[v] & x
        if reach == before:
            return reduce(and_, reach)


@cache
def _same_class_pairs(n: int) -> tuple[tuple[int, ...], ...]:
    """Per 2-colouring of n vertices that gives vertex 0 colour 0, the
    indices in vertex_pairs(n) of the pairs inside a colour class."""
    return tuple(tuple(e for e, (u, v) in enumerate(vertex_pairs(n))
                       if not (colour >> u ^ colour >> v) & 1)
                 for colour in range(0, 1 << n, 2))


def sliced_bipartite(n: int, edges: list[int], every: int) -> int:
    """The graphs of the batch that are bipartite: those with no edge inside
    a colour class of some 2-colouring, over the 2**(n - 1) colourings that
    give vertex 0 colour 0 (swapping the colours keeps the classes)."""
    return reduce(or_, (every & ~reduce(or_, map(edges.__getitem__, inside), 0)
                        for inside in _same_class_pairs(n)))


def sliced_non_neighbors(n: int, edges: list[int], every: int, levels: int) -> list[list[int]]:
    """Per vertex v and count j < levels, the graphs of the batch in which v
    has at least j + 1 non-neighbors: a unary counter per vertex, moved up
    one level by each missing pair at v and saturating at the top level."""
    at_least = [[0] * levels for _ in range(n)]
    steps = range(levels - 1, 0, -1)
    for (u, v), x in zip(vertex_pairs(n), edges):
        missing = every & ~x
        for counter in (at_least[u], at_least[v]):
            for j in steps:
                counter[j] |= counter[j - 1] & missing
            counter[0] |= missing
    return at_least


def sliced_cocktail_party(n: int, edges: list[int], every: int) -> int:
    """The graphs of the batch that are cocktail party graphs, by the rule of
    induces_cocktail_party: even n >= 4 and exactly one non-neighbor per
    vertex, read off two levels of the non-neighbor counters."""
    if n < 4 or n % 2:
        return 0
    return reduce(and_, (one & ~two for one, two in sliced_non_neighbors(n, edges, every, 2)))


# ---------------------------------------------------------------------------
# graph6 interchange (printable 6-bit encoding of the upper triangle)
# ---------------------------------------------------------------------------

_G6_HEADER = ">>graph6<<"


def to_graph6(g: SeedGraph) -> str:
    """Encode as a single graph6 record (no header, no newline).  A seed
    has at most HARD_CAP vertices, so its count fits the one-byte form."""
    n, adj = g.n, g.adj
    bits = "".join(str(adj[v] >> u & 1) for v in range(1, n) for u in range(v))
    bits += "0" * (-len(bits) % 6)
    return chr(n + 63) + "".join(chr(int(bits[i : i + 6], 2) + 63) for i in range(0, len(bits), 6))


def parse_graph6(text: str) -> SeedGraph:
    """Decode one graph6 record, optionally prefixed with '>>graph6<<'."""
    record = text.strip()
    if record.startswith(_G6_HEADER):
        record = record[len(_G6_HEADER) :]
    if not record:
        raise MalformedGraph6("empty record")
    for i, ch in enumerate(record):
        if not 63 <= ord(ch) <= 126:
            raise MalformedGraph6(f"character {ch!r} at byte {i} outside graph6 range")
    if ord(record[0]) == 126:
        # Long-form counts start at 63 vertices, always over our cap.
        raise CapacityExceeded("multi-byte graph6 vertex counts exceed the cap")
    n = ord(record[0]) - 63
    _check_cap(n)
    nbits = n * (n - 1) // 2
    body = record[1:]
    expected_len = (nbits + 5) // 6
    if len(body) != expected_len:
        raise MalformedGraph6(
            f"expected {expected_len} data characters for n={n}, got {len(body)}"
        )
    bits = "".join(format(ord(ch) - 63, "06b") for ch in body)
    if "1" in bits[nbits:]:
        raise MalformedGraph6("nonzero padding bits")
    pairs = ((u, v) for v in range(1, n) for u in range(v))
    return SeedGraph.from_edges(n, (pair for pair, bit in zip(pairs, bits) if bit == "1"))


# ---------------------------------------------------------------------------
# graph specs: the text grammar that FamilySpec.spec_string prints
# ---------------------------------------------------------------------------


def parse_graph_spec(text: str, offset: int = 0) -> tuple[SeedGraph, FamilySpec | None]:
    """Parse one textual graph spec; returns the seed graph, named by its
    canonical spec, plus its FamilySpec when the spec names a generated
    family (None when a g6 or file part is involved).  A GraphSpecError
    carries the position of the fault, counted from offset."""
    head, sep, rest = text.partition(":")
    if not sep:
        raise GraphSpecError(f"expected ':' after {head!r}", offset)
    body_at = offset + len(head) + 1
    if head == "g6":
        if not rest:
            raise GraphSpecError("empty graph6 record", body_at)
        g = parse_graph6(rest)
        return _named(g, f"g6:{to_graph6(g)}"), None
    if head == "file":
        return _read_edge_list(rest, body_at), None
    if head == "corona":
        inner, inner_spec = parse_graph_spec(rest, body_at)
        if inner.n < 2:
            raise GraphSpecError("corona needs an inner graph on >= 2 vertices", body_at)
        spec = FamilySpec.corona(inner_spec) if inner_spec is not None else None
        return _named(corona_of(inner), f"corona:{inner.name}"), spec
    if head == "union":
        parts = []
        specs: list[FamilySpec | None] = []
        for chunk, at in _union_parts(rest, body_at):
            if not chunk:
                raise GraphSpecError("empty union component", at)
            g, s = parse_graph_spec(chunk, at)
            parts.append(g)
            specs.append(s)
        if len(parts) < 2:
            raise GraphSpecError("union needs at least two components", body_at)
        spec = FamilySpec.disjoint_union(*specs) if None not in specs else None
        return _named(disjoint_union(parts), _union_text(p.name for p in parts)), spec
    kind = _KIND.get(head, head)
    if kind in ARITY:
        args = []
        at = body_at
        for piece in rest.split(","):
            try:
                args.append(int(piece))
            except ValueError:
                raise GraphSpecError(f"expected an integer, got {piece!r}", at) from None
            at += len(piece) + 1
        spec = FamilySpec(kind, tuple(args))
        try:
            return make_family(spec), spec
        except InvalidFamilyParameters as exc:
            raise GraphSpecError(str(exc), body_at) from None
    raise GraphSpecError(f"unknown graph kind {head!r}", offset)


def _union_parts(body: str, at: int) -> list[tuple[str, int]]:
    """The parts of a union body with their positions: split at each '+'
    outside parentheses, one enclosing pair of parentheses stripped."""
    parts = []
    opened: list[int] = []
    begin = 0
    for i, ch in enumerate(body + "+"):
        if ch == "(":
            opened.append(i)
        elif ch == ")":
            if not opened:
                raise GraphSpecError("unmatched ')'", at + i)
            opened.pop()
        elif ch == "+" and not opened:
            part = body[begin:i]
            if part.startswith("(") and part.endswith(")"):
                parts.append((part[1:-1], at + begin + 1))
            else:
                parts.append((part, at + begin))
            begin = i + 1
    if opened:
        raise GraphSpecError("unmatched '('", at + opened[0])
    return parts


def _read_edge_list(path: str, at: int) -> SeedGraph:
    """Edge list file: one 'u v' pair per line; n is one above the top vertex."""
    try:
        with open(path) as fh:
            lines = fh.read().split("\n")
    except OSError as exc:
        raise GraphSpecError(f"cannot read {path!r}: {exc.strerror}", at) from None
    edges = []
    top = -1
    for ln, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise GraphSpecError(f"{path}:{ln}: expected 'u v'", at)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphSpecError(f"{path}:{ln}: expected integers", at) from None
        if u < 0 or v < 0 or u == v:
            raise GraphSpecError(f"{path}:{ln}: bad edge ({u}, {v})", at)
        edges.append((u, v))
        top = max(top, u, v)
    return SeedGraph.from_edges(top + 1, edges, name=f"file:{path}")
