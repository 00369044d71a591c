"""Claim catalog: every catalogued characterization of Eulerian reconfiguration
graphs, each mapped to an exhaustive desk-scale verification.

Each claim pairs a closed-form expected verdict with a brute-force computed
verdict and reports any instance where the two disagree.  Every computed
answer is read off domination tables on the subset lattice and no D_k is
built: odd-degree nodes certify "not Eulerian", and otherwise one flood fill
from the lowest non-isolated node decides whether the edges form one
component (computed_eulerian).  The report on a built D_k is the tests'
oracle.  Every claim is a sweep body that yields its disagreements; _run,
the driver of every claim, turns them into a capped, timed report.

Seven claims sweep the labeled graphs on lattice chunks.  Five read each
seed's D(G) off domination.labeled_chunks through _chunk_sweep, which owns
the sweep order, the instance count and the decoding of flagged seeds,
while a judge per claim folds a chunk (order, degree parities, up-closure,
gamma < t) for all its seeds at once.  The corona claims read the coronas'
tables off domination.corona_chunks and decide each distinct (table, k)
once.  A seed is built as a SeedGraph only for an Eulerian candidate, a
disagreement, a universal-gamma instance or a corona with a new table.  The
product claim compares the table of a disjoint union with the outer product
of its parts' tables.
"""

from __future__ import annotations

import time
from enum import Enum
from functools import reduce
from itertools import chain
from operator import or_

from .domination import (
    corona_chunks,
    dominating_table,
    domination_profile,
    labeled_chunks,
    lattice_eulerian,
    size_counts,
    up_closure_gaps,
)
from .errors import BoundExceeded, ClaimUnknown, UncharacterizedInstance
from .graphs import (
    ENUMERATION_CAP,
    FamilySpec,
    SeedGraph,
    connected_components,
    corona_of,
    disjoint_union,
    induces_cocktail_party,
    is_cocktail_party,
    is_complete,
    is_connected,
    labeled_graph,
    make_family,
    sliced_bipartite,
    sliced_cocktail_party,
    sliced_connected,
    to_graph6,
)

#: Cap on counterexamples kept per report; the total count goes in details.
COUNTEREXAMPLE_CAP = 20


class ClaimId(str, Enum):
    """Catalogued claims, one per verified result."""

    PARITY_ODD = "parity_odd"
    PRODUCT_DECOMPOSITION = "product_decomposition"
    MIXED_PARITY_LEMMA = "mixed_parity_lemma"
    DOMINATING_GRAPH_CHARACTERIZATION = "dominating_graph_characterization"
    PATH_CYCLE = "path_cycle"
    COMPLETE_BIPARTITE = "complete_bipartite"
    COCKTAIL_K = "cocktail_k"
    COMPLETE_K = "complete_k"
    UNIVERSAL_GAMMA_SET = "universal_gamma_set"
    CORONA = "corona"
    BIPARTITE_WELL_DOMINATED = "bipartite_well_dominated"
    GAMMA_FORMULAS = "gamma_formulas"
    DOMINATING_GRAPH_CONNECTED_ODD_BIPARTITE = "dominating_graph_connected_odd_bipartite"


class TheoremReport:
    """Outcome of verifying one claim over a bounded instance range: claim,
    bounds, instances_checked, passed, counterexamples, elapsed and details."""

    def __init__(self, claim: str, bounds: dict):
        self.claim = claim
        self.bounds = bounds
        self.instances_checked = 0
        self.passed = True
        self.counterexamples: list[dict] = []
        self.elapsed = 0.0
        self.details: dict = {}

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim,
            "bounds": self.bounds,
            "instances_checked": self.instances_checked,
            "passed": self.passed,
            "counterexamples": self.counterexamples,
            "elapsed_seconds": round(self.elapsed, 3),
            "details": self.details,
        }


# ---------------------------------------------------------------------------
# Expected verdicts from the closed-form characterizations
# ---------------------------------------------------------------------------


def _canonical_family(spec: FamilySpec) -> FamilySpec:
    """Fold aliases: stars are bicliques, all-pairs Turan graphs are cocktail
    parties, singleton-part Turan graphs are complete."""
    if spec.kind == "star":
        return FamilySpec.complete_bipartite(1, spec.args[0])
    if spec.kind == "complete_bipartite" and spec.args[0] > spec.args[1]:
        return FamilySpec.complete_bipartite(spec.args[1], spec.args[0])
    if spec.kind == "turan":
        n, r = spec.args
        if r == n:
            return FamilySpec.complete(n)
        if n >= 4 and n % 2 == 0 and r == n // 2:
            return FamilySpec.cocktail(n)
        if r == 2:
            return FamilySpec.complete_bipartite(n // 2, n - n // 2)
    return spec


def _family_gamma(spec: FamilySpec) -> int | None:
    """Domination number by closed form, for the characterized families."""
    kind, args = spec.kind, spec.args
    if kind in ("path", "cycle"):
        return -(-args[0] // 3)
    if kind == "complete":
        return 1
    if kind == "complete_bipartite":
        return 1 if min(args) == 1 else 2
    if kind == "cocktail":
        return 2
    if kind == "corona":
        return make_family(spec.parts[0]).n
    return None


def expected_eulerian_unrestricted(g: SeedGraph) -> bool:
    """Expected verdict for the unrestricted dominating graph: Eulerian iff
    every component is a single vertex or a cocktail party graph."""
    return all(
        block.bit_count() == 1 or induces_cocktail_party(g, block)
        for block in connected_components(g)
    )


def _corona_eulerian(inner_n: int, k: int) -> bool:
    """Closed form for D_k of the corona of an inner graph of order inner_n:
    Eulerian iff inner_n is even and k = inner_n + 1."""
    return inner_n % 2 == 0 and k == inner_n + 1


def expected_eulerian(spec: FamilySpec, k: int) -> bool:
    """Closed-form predicted verdict for D_k of a characterized family.

    Raises UncharacterizedInstance when no catalogued claim covers the
    (family, k) pair, including the degenerate edgeless case k = gamma.
    """
    spec = _canonical_family(spec)
    g = make_family(spec)
    n = g.n
    if k == n:
        return expected_eulerian_unrestricted(g)
    gamma = _family_gamma(spec)
    if gamma is None:
        raise UncharacterizedInstance(f"no claim covers family {spec.spec_string()}")
    if not gamma < k < n:
        raise UncharacterizedInstance(
            f"k={k} outside the characterized range {gamma} < k < {n} "
            f"for {spec.spec_string()}"
        )
    kind = spec.kind
    if kind == "path":
        return n == 4 and k == 3
    if kind == "cycle":
        return (n == 7 and k == 4) or (n == 3 and k == 2)
    if kind == "complete_bipartite":
        m, n2 = spec.args
        return (m == 1 and n2 % 2 == 0 and k % 2 == 1) or (
            m >= 3 and (m - n2) % 2 == 0 and k == 3
        )
    if kind == "cocktail":
        return k % 2 == 0
    if kind == "complete":
        return n % 2 == 1 and k == 2
    if kind == "corona":
        return _corona_eulerian(n // 2, k)
    raise UncharacterizedInstance(f"no claim covers family {spec.spec_string()}")


# ---------------------------------------------------------------------------
# Computed verdicts: brute force on the subset lattice
# ---------------------------------------------------------------------------


def computed_eulerian(g: SeedGraph, k: int, table: int | None = None) -> bool:
    """Brute-force Eulerian verdict for D_k(g), decided on the subset lattice
    by domination.lattice_eulerian without building D_k: an odd-degree node
    settles the negative case, and otherwise one flood fill from the lowest
    non-isolated node decides whether the edges form one component.  The
    report on the built graph, eulerian_report(build_reconfig(g, k)), is
    this verdict's test oracle.

    table is g's dominating_table, computed here if not given.  Raises
    ValueError for k outside [0, n] and BoundBelowGamma when no set of
    cardinality <= k dominates.
    """
    if table is None:
        table = dominating_table(g)
    return lattice_eulerian(g.n, table, k)


def _seed_label(seed) -> str:
    """Counterexample label: a string as given, a seed by name or graph6, a
    list of parts as their union."""
    if isinstance(seed, str):
        return seed
    if isinstance(seed, list):
        return "union[" + ", ".join(_seed_label(p) for p in seed) + "]"
    return seed.name or f"g6:{to_graph6(seed)}"


# ---------------------------------------------------------------------------
# Sweep driver
# ---------------------------------------------------------------------------


def _run(claim: ClaimId, body, **bounds) -> TheoremReport:
    """Run one claim's sweep and report it.

    body(report, **bounds) returns an iterator: it states its range in
    report.bounds, counts its instances on the report and yields
    (seed, k, expected, computed) for each disagreement.  The driver labels
    the seed with _seed_label, keeps the first COUNTEREXAMPLE_CAP
    counterexamples, counts all of them, and times the sweep.
    """
    start = time.perf_counter()
    report = TheoremReport(claim.value, {})
    count = 0
    for seed, k, expected, computed in body(report, **bounds):
        count += 1
        if count <= COUNTEREXAMPLE_CAP:
            report.counterexamples.append({"seed": _seed_label(seed), "k": k,
                                           "expected": expected, "computed": computed})
    report.passed = count == 0
    report.details["counterexample_count"] = count
    report.elapsed = time.perf_counter() - start
    return report


def _chunks(n_min: int, n_max: int, chunks=labeled_chunks):
    """Every labeled seed on n_min..n_max vertices as lattice chunks, or with
    chunks=corona_chunks the coronas of those seeds, in order of n and edge
    mask; an over-bound request fails here, before any sweep."""
    if n_max > ENUMERATION_CAP:
        raise BoundExceeded(f"exhaustive sweeps support n <= {ENUMERATION_CAP}, got {n_max}")
    return chain.from_iterable(map(chunks, range(n_min, n_max + 1)))


def _chunk_sweep(report, n_min: int, n_max: int, judge):
    """The sweep of the claims decided on lattice chunks.  judge(chunk) gives
    the chunk's instances and a dict of named problems, each as per-graph
    bits.  The bounds are stated, the instances counted, and (g, names of
    g's problems) yielded per flagged instance in order of n and edge mask."""
    report.bounds = {"n_min": n_min, "n_max": n_max}
    for chunk in _chunks(n_min, n_max):
        instances, problems = judge(chunk)
        report.instances_checked += instances.bit_count()
        flagged = instances & reduce(or_, problems.values())
        while flagged:
            low = flagged & -flagged
            flagged ^= low
            yield next(chunk.graphs(low)), [name for name, bits in problems.items() if bits & low]


# ---------------------------------------------------------------------------
# Claim sweeps: bodies for _run
# ---------------------------------------------------------------------------


def _parity_odd(report, n_max: int = 6):
    def judge(chunk):
        return chunk.every, {"even dominating-set count": ~chunk.parity(chunk.table)}

    for g, _ in _chunk_sweep(report, 1, n_max, judge):
        yield g, None, "odd dominating-set count", dominating_table(g).bit_count()


def _characterization(report, n_min: int = 2, n_max: int = 7):
    """Unrestricted dominating graph Eulerian iff the seed is a cocktail party
    graph, swept over every connected labeled seed in range.  One-vertex seeds
    are excluded from the equivalence but D(K_1) is checked to be a single
    edgeless node."""
    eulerian_seeds = {str(n): [] for n in range(n_min, n_max + 1)}

    def judge(chunk):
        # A seed with an odd node is not Eulerian; only the others, and the
        # cocktail seeds expected to be Eulerian, are built and decided.
        return (sliced_connected(chunk.n, chunk.edges, chunk.every),
                {"no odd-degree node": ~chunk.any(chunk.odd_degree_nodes()),
                 "cocktail party": sliced_cocktail_party(chunk.n, chunk.edges, chunk.every)})

    for g, _ in _chunk_sweep(report, n_min, n_max, judge):
        expected = is_cocktail_party(g)
        computed = computed_eulerian(g, g.n)
        if computed:
            eulerian_seeds[str(g.n)].append(to_graph6(g))
        if computed != expected:
            yield g, g.n, expected, computed
    single = dominating_table(make_family(FamilySpec.complete(1)))
    if single != 1 << 1:  # the one set {0}
        yield "complete:1", 1, "one isolated node", f"table {single:#b}"
    report.details["eulerian_seeds"] = eulerian_seeds


def negative_control_characterization(n: int = 6) -> TheoremReport:
    """Re-run the characterization sweep at one n with a planted defect: a
    cocktail party seed with one edge deleted but still labeled as expected
    Eulerian.  A healthy harness reports exactly that instance."""
    h = make_family(FamilySpec.cocktail(n))
    v = next(w for w in range(1, n) if h.has_edge(0, w))
    adj = list(h.adj)
    adj[0] ^= 1 << v
    adj[v] ^= 1
    mutated = SeedGraph(n, adj, name=f"planted:cocktail:{n}-edge(0,{v})")

    def planted(report):
        yield from _characterization(report, n, n)
        report.instances_checked += 1
        if not computed_eulerian(mutated, n):
            yield mutated, n, True, False

    return _run(ClaimId.DOMINATING_GRAPH_CHARACTERIZATION, planted)


def _family_sweep(report, specs: list[FamilySpec], past_n: bool = False):
    """D_k of characterized family instances for gamma < k < n (k <= n with
    past_n) against expected_eulerian; the Eulerian instances go in details."""
    found = []
    for spec in specs:
        g = make_family(spec)
        table = dominating_table(g)
        for k in range(_family_gamma(spec) + 1, g.n + past_n):
            computed = computed_eulerian(g, k, table)
            expected = expected_eulerian(spec, k)
            report.instances_checked += 1
            if computed:
                found.append([spec.spec_string(), k])
            if computed != expected:
                yield g, k, expected, computed
    report.details["eulerian_instances"] = sorted(found)


def _path_cycle(report, n_max: int = 15):
    report.bounds = {"n_min": 3, "n_max": n_max}
    return _family_sweep(report, [maker(n) for maker in (FamilySpec.path, FamilySpec.cycle)
                                  for n in range(3, n_max + 1)])


def _complete_bipartite(report, n_max: int = 8):
    report.bounds = {"m_min": 1, "n_max": n_max}
    return _family_sweep(report, [FamilySpec.complete_bipartite(m, n2)
                                  for m in range(1, n_max + 1) for n2 in range(m, n_max + 1)])


def _cocktail_k(report, n_max: int = 12):
    """Restricted bounds 2 < k < n plus the k = n consistency check."""
    report.bounds = {"n_min": 4, "n_max": n_max}
    specs = [FamilySpec.cocktail(n) for n in range(4, n_max + 1, 2)]
    return _family_sweep(report, specs, past_n=True)


def _complete_k(report, n_max: int = 12):
    report.bounds = {"n_min": 2, "n_max": n_max}
    return _family_sweep(report, [FamilySpec.complete(n) for n in range(2, n_max + 1)])


def _corona_sweep(report, chunks, bipartite: bool):
    """D_k of the coronas of the corona chunks for n < k < 2n, n the inner
    order: with bipartite, of the bipartite inner graphs' coronas alone, and
    otherwise of every corona, whose domination profile is checked too.

    Each chunk's table is cut into one block of 2**(2n) bits per graph, as
    bytes.  Every instance is counted, but each distinct block is profiled
    and decided once, on the corona of its first inner graph: a set
    dominates a corona iff it meets {v, v'} for each inner vertex v, so all
    inner graphs of one order share a table, and a changed corona gets
    verdicts of its own.  Disagreements come per inner graph in order of n
    and edge mask, the profile's first.
    """
    problems = {}  # per distinct block: its (k, expected, computed) disagreements
    for chunk in chunks:
        n, count, width = chunk.n, chunk.every.bit_length(), 1 << 2 * chunk.n - 3
        instances = sliced_bipartite(n, chunk.edges, chunk.every) if bipartite else chunk.every
        report.instances_checked += instances.bit_count() * (n - 1)
        data = chunk.table.to_bytes(width * count, "little")
        for i in range(count):
            if not instances >> i & 1:
                continue
            block = data[i * width : (i + 1) * width]
            if block not in problems:
                g = corona_of(labeled_graph(n, chunk.first + i))
                table = int.from_bytes(block, "little")
                found = problems[block] = []
                profile = None if bipartite else domination_profile(g, table)
                if profile and (profile.gamma, profile.upper_gamma) != (n, n):
                    found.append((None, f"gamma = upper_gamma = {n}",
                                  [profile.gamma, profile.upper_gamma]))
                for k in range(n + 1, 2 * n):
                    computed = computed_eulerian(g, k, table)
                    if computed != _corona_eulerian(n, k):
                        found.append((k, _corona_eulerian(n, k), computed))
            if problems[block]:
                seed = f"corona:g6:{to_graph6(labeled_graph(n, chunk.first + i))}"
                yield from ((seed, *problem) for problem in problems[block])


def _corona(report, inner_max: int = 5):
    """Coronas of every labeled inner graph (connected or not): Eulerian iff
    the inner order is even and k is one above it.  Also checks that coronas
    are well-dominated with domination number equal to the inner order."""
    report.bounds = {"inner_min": 2, "inner_max": inner_max}
    return _corona_sweep(report, _chunks(2, inner_max, corona_chunks), bipartite=False)


def _bipartite_well_dominated(report, inner_max: int = 5):
    """Catalogued claim for bipartite well-dominated seeds on 2n vertices:
    Eulerian iff the seed is the 4-cycle with k = 3, or a corona with n even
    and k = n + 1.  The 4-cycle bullet is recorded verbatim from the source
    catalog even though it contradicts the path/cycle characterization (D_3
    of the 4-cycle has a degree-3 node), so this claim is expected to report
    exactly that counterexample."""
    report.bounds = {"inner_min": 2, "inner_max": inner_max}
    chunks = _chunks(2, inner_max, corona_chunks)
    c4 = make_family(FamilySpec.cycle(4))
    computed = computed_eulerian(c4, 3)
    report.instances_checked += 1
    if computed is not True:
        yield c4, 3, True, computed
    yield from _corona_sweep(report, chunks, bipartite=True)


def _product_instance(report, parts: list[SeedGraph]):
    """One disjoint union against the product of its parts' dominating graphs.
    Both live on the union's vertex masks, where a set dominates the union
    iff each part's share dominates that part: the union's table must be the
    outer product of the parts' tables.  Equal tables make equal graphs,
    since both join the sets one vertex apart.  The union must be Eulerian
    iff every part is."""
    report.instances_checked += 1
    union = disjoint_union(parts)
    table = dominating_table(union)
    product, low = 1, 0  # the empty set dominates the graph on no vertices
    factor_eulerian = []
    for p in parts:
        t = dominating_table(p)
        product = sum(product << (s << low) for s in range(t.bit_length()) if t >> s & 1)
        low += p.n
        factor_eulerian.append(computed_eulerian(p, p.n, t))
    if table != product:
        yield parts, None, "the union's node masks, once each", "node masks differ"
    union_eulerian = computed_eulerian(union, union.n, table)
    if union_eulerian != all(factor_eulerian):
        yield parts, None, f"union Eulerian iff factors {factor_eulerian}", union_eulerian


def _product_parts(report, parts: list[SeedGraph]):
    report.bounds = {"part_sizes": [p.n for p in parts]}
    return _product_instance(report, parts)


def verify_product_decomposition(parts: list[SeedGraph]) -> TheoremReport:
    """Check that the dominating graph of a disjoint union is the Cartesian
    product of the parts' dominating graphs, as the outer product of their
    domination tables, and that the union is Eulerian iff every factor is."""
    if len(parts) < 2:
        raise ValueError("need at least two parts")
    return _run(ClaimId.PRODUCT_DECOMPOSITION, _product_parts, parts=parts)


def _random_connected(rng: random.Random, n: int) -> SeedGraph:
    m = n * (n - 1) // 2
    while True:
        g = labeled_graph(n, rng.getrandbits(m) if m else 0)
        if is_connected(g):
            return g


def _product_decomposition(report, samples: int = 100, max_part: int = 5, seed: int = 2025):
    import random
    report.bounds = {"samples": samples, "max_part": max_part, "rng_seed": seed}
    rng = random.Random(seed)
    for _ in range(samples):
        m = rng.choice([2, 3])
        parts = [_random_connected(rng, rng.randint(1, max_part)) for _ in range(m)]
        yield from _product_instance(report, parts)


def _mixed_parity(report, n_max: int = 6):
    report.details["graphs_scanned"] = 0

    def judge(chunk):
        connected = sliced_connected(chunk.n, chunk.edges, chunk.every)
        report.details["graphs_scanned"] += connected.bit_count()
        # Lemma: gamma < t (the universal threshold; t >= 2 follows) forces both parities.
        lemma = chunk.below_threshold()
        odd = chunk.odd_degree_nodes()
        return connected & lemma, {"no even-degree node": ~chunk.any(chunk.table & ~odd),
                                   "no odd-degree node": ~chunk.any(odd)}

    for g, problems in _chunk_sweep(report, 2, n_max, judge):
        yield g, g.n, "both degree parities", {"even": "no even-degree node" not in problems,
                                               "odd": "no odd-degree node" not in problems}


def verify_mixed_parity_lemma(n_max: int = 6) -> TheoremReport:
    """Connected seeds whose least universal threshold t = l + 1 admits both a
    dominating and a non-dominating l-set must have dominating graphs with at
    least one even-degree and one odd-degree node."""
    return _run(ClaimId.MIXED_PARITY_LEMMA, _mixed_parity, n_max=n_max)


def _universal_gamma_set(report, n_max: int = 6):
    """Connected seeds where every gamma-sized set dominates are complete
    graphs or cocktail party graphs, and their restricted-k verdicts follow
    the complete/cocktail rules."""
    def judge(chunk):
        # every gamma-set dominates iff gamma = t, the universal threshold
        universal = chunk.every & ~chunk.below_threshold()
        return (sliced_connected(chunk.n, chunk.edges, chunk.every) & universal,
                {"universal gamma set": universal})

    for g, _ in _chunk_sweep(report, 2, n_max, judge):
        table = dominating_table(g)
        gamma = next(c for c, count in enumerate(size_counts(g.n, table)) if count)
        complete = is_complete(g)
        if not (complete or is_cocktail_party(g)):
            yield g, None, "complete or cocktail", "neither"
            continue
        spec = FamilySpec.complete(g.n) if complete else FamilySpec.cocktail(g.n)
        for k in range(gamma + 1, g.n):
            computed = computed_eulerian(g, k, table)
            expected = expected_eulerian(spec, k)
            if computed != expected:
                yield g, k, expected, computed


def _gamma_formulas(report, path_max: int = 15, complete_max: int = 12, biclique_max: int = 8):
    """Domination numbers of the generated families match their closed forms."""
    report.bounds = {"path_max": path_max, "complete_max": complete_max,
                     "biclique_max": biclique_max}
    specs = (
        [FamilySpec.path(n) for n in range(1, path_max + 1)]
        + [FamilySpec.cycle(n) for n in range(3, path_max + 1)]
        + [FamilySpec.complete(n) for n in range(1, complete_max + 1)]
        + [FamilySpec.complete_bipartite(m, n2)
           for m in range(1, biclique_max + 1) for n2 in range(m, biclique_max + 1)]
    )
    for spec in specs:
        g = make_family(spec)
        got = domination_profile(g).gamma
        expected = _family_gamma(spec)
        report.instances_checked += 1
        if got != expected:
            yield g, None, expected, got


def _connected_odd_bipartite(report, n_max: int = 5):
    """Unrestricted dominating graphs of connected seeds are connected, have
    odd order, are 2-colored by cardinality parity and have an even-degree
    node.  The coloring holds by construction, as each move changes |S| by
    one.  The judge checks that the table is up-closed, so every dominating
    set reaches V one vertex at a time and D(G) is connected (Haas &
    Seyffarth, "The k-dominating graph", 2014)."""
    def judge(chunk):
        return (sliced_connected(chunk.n, chunk.edges, chunk.every),
                {"table not up-closed": chunk.any(up_closure_gaps(chunk.lattice, chunk.table)),
                 "even node count": ~chunk.parity(chunk.table),
                 "no even-degree node": ~chunk.any(chunk.table & ~chunk.odd_degree_nodes())})

    for g, problems in _chunk_sweep(report, 1, n_max, judge):
        yield g, g.n, "connected, odd order, bipartite, even-degree node", problems


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

#: Per claim: its sweep body and the keyword that the CLI's --max-n flag
#: overrides.
_CLAIMS = {
    ClaimId.PARITY_ODD: (_parity_odd, "n_max"),
    ClaimId.PRODUCT_DECOMPOSITION: (_product_decomposition, "max_part"),
    ClaimId.MIXED_PARITY_LEMMA: (_mixed_parity, "n_max"),
    ClaimId.DOMINATING_GRAPH_CHARACTERIZATION: (_characterization, "n_max"),
    ClaimId.PATH_CYCLE: (_path_cycle, "n_max"),
    ClaimId.COMPLETE_BIPARTITE: (_complete_bipartite, "n_max"),
    ClaimId.COCKTAIL_K: (_cocktail_k, "n_max"),
    ClaimId.COMPLETE_K: (_complete_k, "n_max"),
    ClaimId.UNIVERSAL_GAMMA_SET: (_universal_gamma_set, "n_max"),
    ClaimId.CORONA: (_corona, "inner_max"),
    ClaimId.BIPARTITE_WELL_DOMINATED: (_bipartite_well_dominated, "inner_max"),
    ClaimId.GAMMA_FORMULAS: (_gamma_formulas, "path_max"),
    ClaimId.DOMINATING_GRAPH_CONNECTED_ODD_BIPARTITE: (_connected_odd_bipartite, "n_max"),
}


def verify_claim(claim: ClaimId | str, **bounds) -> TheoremReport:
    """Run one catalogued claim; keyword bounds override its defaults."""
    try:
        claim = ClaimId(claim)
    except ValueError:
        raise ClaimUnknown(f"unknown claim {claim!r}") from None
    body, _ = _CLAIMS[claim]
    return _run(claim, body, **bounds)


def max_n_override(claim: ClaimId, value: int) -> dict:
    """Bounds dict that applies a generic --max-n override to one claim."""
    _, primary = _CLAIMS[claim]
    return {primary: value}
