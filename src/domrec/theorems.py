"""Claim catalog: every catalogued characterization of Eulerian reconfiguration
graphs, each mapped to an exhaustive desk-scale verification.

Each claim pairs a closed-form expected verdict with a brute-force computed
verdict and reports any instance where the two disagree.  Every computed
verdict is decided on the subset lattice, as bitwise operations on the
domination table, without building the graph: odd-degree nodes certify "not
Eulerian", and otherwise one flood fill from the lowest non-isolated node
decides whether the edges form one component (computed_eulerian).  The
report on the built graph is the tests' oracle for the flood.  Each claim is
a sweep body that yields its disagreements; one driver, _run, turns them
into a capped, timed report.

Every labeled seed comes from the (edge mask, subset) lattice of
domination.labeled_chunks.  Four claims (parity_odd, mixed_parity_lemma,
dominating_graph_characterization, universal_gamma_set) are decided there:
folds of each chunk's domination table and the bit-sliced predicates of
graphs give every seed's parity, odd-node, size-class, connectivity and
cocktail bits at once.  A seed is built as a SeedGraph only where needed: a
candidate whose verdict computed_eulerian decides on its own table, a
disagreement, a universal-gamma instance, or a seed of the three per-seed
claims, which _labeled decodes from the chunks.  D_k itself is built only
where its edges are checked: D of a disjoint union against the product of
its parts' D's (compared on the union's vertex masks), D(K_1), and the
unrestricted D of each seed of dominating_graph_connected_odd_bipartite.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from enum import Enum
from functools import reduce
from itertools import chain
from operator import or_

from .domination import (
    dominating_table,
    domination_profile,
    format_set,
    labeled_chunks,
    lattice_eulerian,
    odd_degree_nodes,
    size_counts,
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
    is_bipartite,
    is_cocktail_party,
    is_complete,
    is_connected,
    labeled_graph,
    make_family,
    sliced_cocktail_party,
    sliced_connected,
    to_graph6,
)
from .reconfig import (
    build_reconfig,
    cartesian_product,
    eulerian_report,
    parity_bipartition_valid,
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


@dataclass
class TheoremReport:
    """Outcome of verifying one claim over a bounded instance range."""

    claim: str
    bounds: dict
    instances_checked: int = 0
    passed: bool = True
    counterexamples: list[dict] = field(default_factory=list)
    elapsed: float = 0.0
    details: dict = field(default_factory=dict)

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
        inner_n = n // 2
        return inner_n % 2 == 0 and k == inner_n + 1
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


def _orders(n_min: int, n_max: int) -> range:
    """n_min..n_max, the orders of an exhaustive sweep.  The bound is checked
    here, before any sweeping, so an over-bound request fails fast."""
    if n_max > ENUMERATION_CAP:
        raise BoundExceeded(f"exhaustive sweeps support n <= {ENUMERATION_CAP}, got {n_max}")
    return range(n_min, n_max + 1)


def _chunks(n_min: int, n_max: int):
    """Every labeled seed on n_min..n_max vertices as lattice chunks, in
    order of n and edge mask."""
    return chain.from_iterable(map(labeled_chunks, _orders(n_min, n_max)))


def _labeled(n_min: int, n_max: int, connected: bool):
    """Every labeled seed on n_min..n_max vertices (connected ones only, if
    asked), decoded from _chunks in order of n and edge mask."""
    return chain.from_iterable(
        chunk.graphs(sliced_connected(chunk.n, chunk.edges, chunk.every) if connected
                     else chunk.every) for chunk in _chunks(n_min, n_max))


# ---------------------------------------------------------------------------
# Claim sweeps: bodies for _run
# ---------------------------------------------------------------------------


def _parity_odd(report, n_max: int = 6):
    report.bounds = {"n_min": 1, "n_max": n_max}
    for chunk in _chunks(1, n_max):
        report.instances_checked += chunk.count
        for g in chunk.graphs(chunk.every & ~chunk.parity(chunk.table)):
            yield g, None, "odd dominating-set count", dominating_table(g).bit_count()


def _characterization(report, n_min: int = 2, n_max: int = 7):
    """Unrestricted dominating graph Eulerian iff the seed is a cocktail party
    graph, swept over every connected labeled seed in range.  One-vertex seeds
    are excluded from the equivalence but D(K_1) is checked to be a single
    edgeless node."""
    report.bounds = {"n_min": n_min, "n_max": n_max}
    eulerian_seeds = {str(n): [] for n in range(n_min, n_max + 1)}
    for chunk in _chunks(n_min, n_max):
        n = chunk.n
        connected = sliced_connected(n, chunk.edges, chunk.every)
        report.instances_checked += connected.bit_count()
        # A seed with an odd node is not Eulerian; only the others, and the
        # cocktail seeds expected to be Eulerian, are built and decided.
        even = chunk.every & ~chunk.any(chunk.odd_degree_nodes())
        cocktail = sliced_cocktail_party(n, chunk.edges, chunk.every)
        for g in chunk.graphs(connected & (even | cocktail)):
            expected = is_cocktail_party(g)
            computed = computed_eulerian(g, n)
            if computed:
                eulerian_seeds[str(n)].append(to_graph6(g))
            if computed != expected:
                yield g, n, expected, computed
    single = build_reconfig(make_family(FamilySpec.complete(1)), 1)
    if single.node_count != 1 or single.edge_count != 0:
        yield "complete:1", 1, "one isolated node", f"{single!r}"
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


def _corona_sweep(report, inners, check_profile: bool):
    """D_k of the corona of each inner graph, for n < k < 2n with n the inner
    order; with check_profile, also its domination profile."""
    for inner in inners:
        n = inner.n
        g = corona_of(inner)
        table = dominating_table(g)
        if check_profile:
            profile = domination_profile(g, table)
            if not (profile.gamma == profile.upper_gamma == n):
                yield (f"corona:g6:{to_graph6(inner)}", None, f"gamma = upper_gamma = {n}",
                       [profile.gamma, profile.upper_gamma])
        for k in range(n + 1, 2 * n):
            computed = computed_eulerian(g, k, table)
            expected = n % 2 == 0 and k == n + 1
            report.instances_checked += 1
            if computed != expected:
                yield f"corona:g6:{to_graph6(inner)}", k, expected, computed


def _corona(report, inner_max: int = 5):
    """Coronas of every labeled inner graph (connected or not): Eulerian iff
    the inner order is even and k is one above it.  Also checks that coronas
    are well-dominated with domination number equal to the inner order."""
    report.bounds = {"inner_min": 2, "inner_max": inner_max}
    return _corona_sweep(report, _labeled(2, inner_max, connected=False), check_profile=True)


def _bipartite_well_dominated(report, inner_max: int = 5):
    """Catalogued claim for bipartite well-dominated seeds on 2n vertices:
    Eulerian iff the seed is the 4-cycle with k = 3, or a corona with n even
    and k = n + 1.

    The 4-cycle bullet is recorded verbatim from the source catalog even
    though it contradicts the path/cycle characterization (D_3 of the 4-cycle
    has a degree-3 node), so this claim is expected to report exactly that
    counterexample.
    """
    report.bounds = {"inner_min": 2, "inner_max": inner_max}
    inners = filter(is_bipartite, _labeled(2, inner_max, connected=False))
    c4 = make_family(FamilySpec.cycle(4))
    computed = computed_eulerian(c4, 3)
    report.instances_checked += 1
    if computed is not True:
        yield c4, 3, True, computed
    yield from _corona_sweep(report, inners, check_profile=False)


def _product_instance(report, parts: list[SeedGraph]):
    """One disjoint union against the product of its parts' dominating graphs.
    Both live on the union's vertex masks: the product must have the union's
    masks, once each, and the same neighbours at every mask."""
    report.instances_checked += 1
    union = disjoint_union(parts)
    du = build_reconfig(union, union.n)
    factors = [build_reconfig(p, p.n) for p in parts]
    prod = reduce(cartesian_product, factors)
    prod_index = {s: i for i, s in enumerate(prod.nodes)}
    if len(prod_index) != prod.node_count or prod_index.keys() != set(du.nodes):
        yield parts, None, "the union's node masks, once each", "node masks differ"
    else:
        mapped = [prod_index[s] for s in du.nodes]
        for i, nbrs in enumerate(du.adjacency):
            if sorted(mapped[j] for j in nbrs) != prod.adjacency[mapped[i]]:
                yield (parts, None, "edge-preserving bijection",
                       f"node {format_set(du.nodes[i])} neighbor mismatch")
                break
    union_eulerian = eulerian_report(du).is_eulerian
    factor_eulerian = [eulerian_report(f).is_eulerian for f in factors]
    if union_eulerian != all(factor_eulerian):
        yield parts, None, f"union Eulerian iff factors {factor_eulerian}", union_eulerian
    if union_eulerian != eulerian_report(prod).is_eulerian:
        yield parts, None, "union and product agree on Eulerian", union_eulerian


def _product_parts(report, parts: list[SeedGraph]):
    report.bounds = {"part_sizes": [p.n for p in parts]}
    return _product_instance(report, parts)


def verify_product_decomposition(parts: list[SeedGraph]) -> TheoremReport:
    """Check that the dominating graph of a disjoint union is the Cartesian
    product of the parts' dominating graphs, node mask by node mask, and that
    the union is Eulerian iff every factor is."""
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
    report.bounds = {"samples": samples, "max_part": max_part, "rng_seed": seed}
    rng = random.Random(seed)
    for _ in range(samples):
        m = rng.choice([2, 3])
        parts = [_random_connected(rng, rng.randint(1, max_part)) for _ in range(m)]
        yield from _product_instance(report, parts)


def _mixed_parity(report, n_max: int = 6):
    report.bounds = {"n_min": 2, "n_max": n_max}
    scanned = 0
    for chunk in _chunks(2, n_max):
        n = chunk.n
        connected = sliced_connected(n, chunk.edges, chunk.every)
        scanned += connected.bit_count()
        # l = t - 1 for the universal threshold t is the largest c whose
        # c-sets do not all dominate; the lemma needs l >= 1 and one that does.
        some, every = chunk.size_classes()
        lemma = connected & reduce(
            or_, (some[c] & ~every[c] & every[c + 1] for c in range(1, n)), 0)
        report.instances_checked += lemma.bit_count()
        odd = chunk.odd_degree_nodes()
        both = chunk.any(odd) & chunk.any(chunk.table & ~odd)
        for g in chunk.graphs(lemma & ~both):
            table = dominating_table(g)
            odd = odd_degree_nodes(n, table, n)
            yield g, n, "both degree parities", {"even": odd != table, "odd": odd != 0}
    report.details["graphs_scanned"] = scanned


def verify_mixed_parity_lemma(n_max: int = 6) -> TheoremReport:
    """Connected seeds whose least universal threshold t = l + 1 admits both a
    dominating and a non-dominating l-set must have dominating graphs with at
    least one even-degree and one odd-degree node."""
    return _run(ClaimId.MIXED_PARITY_LEMMA, _mixed_parity, n_max=n_max)


def _universal_gamma_set(report, n_max: int = 6):
    """Connected seeds where every gamma-sized set dominates are complete
    graphs or cocktail party graphs, and their restricted-k verdicts follow
    the complete/cocktail rules."""
    report.bounds = {"n_min": 2, "n_max": n_max}
    for chunk in _chunks(2, n_max):
        n = chunk.n
        # every gamma-set dominates iff, for some c, every c-set dominates
        # and no (c - 1)-set does
        some, every = chunk.size_classes()
        universal = reduce(or_, (x & ~y for x, y in zip(every, [0] + some)))
        connected = sliced_connected(n, chunk.edges, chunk.every)
        for g in chunk.graphs(connected & universal):
            table = dominating_table(g)
            gamma = next(c for c, count in enumerate(size_counts(n, table)) if count)
            report.instances_checked += 1
            complete = is_complete(g)
            if not (complete or is_cocktail_party(g)):
                yield g, None, "complete or cocktail", "neither"
                continue
            spec = FamilySpec.complete(n) if complete else FamilySpec.cocktail(n)
            for k in range(gamma + 1, n):
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
    odd order, are properly 2-colored by cardinality parity, and contain an
    even-degree node."""
    report.bounds = {"n_min": 1, "n_max": n_max}
    for g in _labeled(1, n_max, connected=True):
        r = build_reconfig(g, g.n)
        rep = eulerian_report(r)
        report.instances_checked += 1
        problems = [problem for problem, found in (
            ("disconnected", not rep.is_connected),
            ("even node count", rep.node_count % 2 == 0),
            ("parity bipartition broken", not parity_bipartition_valid(r)),
            ("no even-degree node", rep.odd_degree_count == rep.node_count),
        ) if found]
        if problems:
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
