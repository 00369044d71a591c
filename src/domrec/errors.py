"""Exception types shared across the package."""


class DomrecError(Exception):
    """Base class for all package-specific errors."""


class InvalidFamilyParameters(DomrecError):
    """A graph-family parameter is outside its allowed range."""


class CapacityExceeded(DomrecError):
    """A seed graph would exceed the hard vertex cap (one machine word of subsets),
    or a graph built from one would exceed its cap."""


class MalformedGraph6(DomrecError):
    """A graph6 record is truncated, padded wrongly, or contains bad characters."""


class BoundExceeded(DomrecError):
    """A requested exhaustive sweep is above the supported desk-scale bound."""


class DimensionMismatch(DomrecError):
    """A vertex set and a seed graph disagree on the ambient vertex count."""


class EmptyGraph(DomrecError):
    """The operation is undefined on a graph with no vertices."""


class ReconfigTooLarge(CapacityExceeded):
    """Listing a reconfiguration graph's nodes (for an Euler circuit, DOT or
    CSV) would exceed the node cap."""


class BoundBelowGamma(DomrecError):
    """The cardinality bound k is below the domination number, so no nodes exist."""


class NotEulerian(DomrecError):
    """An Euler circuit was requested on a graph that is not Eulerian."""


class NoEdges(DomrecError):
    """An Euler circuit was requested on a graph with no edges."""


class UncharacterizedInstance(DomrecError):
    """No catalogued claim predicts a verdict for this (family, k) instance."""


class ClaimUnknown(DomrecError):
    """The claim identifier does not name a catalogued claim."""


class GraphSpecError(DomrecError):
    """A textual graph spec failed to parse; carries the offending position."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"at position {position}: {message}")
        self.position = position
