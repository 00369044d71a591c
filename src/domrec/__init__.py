"""Dominating-set reconfiguration graphs of small seed graphs.

Build D_k(G), test the relaxed Eulerian criterion (all degrees even, at most
one non-trivial component), extract Euler circuits, and exhaustively verify a
catalog of closed-form characterizations at desk scale.
"""

from .domination import (
    DominationProfile,
    domination_profile,
    format_set,
)
from .graphs import (
    FamilySpec,
    SeedGraph,
    connected_components,
    corona_of,
    disjoint_union,
    is_cocktail_party,
    make_family,
    parse_graph6,
    to_graph6,
)
from .reconfig import (
    EulerReport,
    ReconfigGraph,
    build_reconfig,
    euler_circuit,
    eulerian_report,
)
from .theorems import (
    ClaimId,
    TheoremReport,
    expected_eulerian,
    verify_claim,
    verify_mixed_parity_lemma,
    verify_product_decomposition,
)

__version__ = "0.1.0"

__all__ = [
    "ClaimId",
    "DominationProfile",
    "EulerReport",
    "FamilySpec",
    "ReconfigGraph",
    "SeedGraph",
    "TheoremReport",
    "build_reconfig",
    "connected_components",
    "corona_of",
    "disjoint_union",
    "domination_profile",
    "euler_circuit",
    "eulerian_report",
    "expected_eulerian",
    "format_set",
    "is_cocktail_party",
    "make_family",
    "parse_graph6",
    "to_graph6",
    "verify_claim",
    "verify_mixed_parity_lemma",
    "verify_product_decomposition",
]
