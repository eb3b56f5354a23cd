"""Exception hierarchy shared by all mapglue modules."""


class MapGlueError(Exception):
    """Base class for all errors raised by mapglue."""


# -- map construction and validation ----------------------------------------

class NotInvolution(MapGlueError):
    """alpha is not a fixed-point-free involution."""


class Disconnected(MapGlueError):
    """The permutation pair does not act transitively on the darts."""


class NonPlanar(MapGlueError):
    """Euler characteristic differs from 2 (higher genus rejected)."""


# -- trees and Dyck paths ----------------------------------------------------

class EmptyTree(MapGlueError):
    """Tree with zero edges where at least one edge is required."""


class NotDyck(MapGlueError):
    """Step sequence is not a Dyck path."""


# -- gluing / ungluing --------------------------------------------------------

class RootNotOnTree(MapGlueError):
    """Root-on-tree convention requires the map root edge in the decoration."""


class DecorationNotATree(MapGlueError):
    """Decoration edge set is not a connected acyclic submap."""


class BoundaryNotSimple(MapGlueError):
    """Gluing requires a simple boundary."""


class SizeMismatch(MapGlueError):
    """Boundary perimeter does not match twice the tree edge count."""


class TreeTooLarge(MapGlueError):
    """Partial gluing needs a tree contour (twice the tree edge count) no
    longer than the perimeter."""


class BoundariesNotDisjoint(MapGlueError):
    """Multi-boundary gluing requires vertex-disjoint boundaries."""


# -- bubbles ------------------------------------------------------------------

class BoundaryHasBridge(MapGlueError):
    """Bridged boundaries admit no constructive gluing."""


class MalformedCircuit(MapGlueError):
    """Circuit violates the contour-recovery rules."""


class CircuitMissesPinch(MapGlueError):
    """Circuit does not pass through every pinch vertex."""


# -- enumeration, counting, series, sampling ----------------------------------

class CapExceeded(MapGlueError):
    """Requested size is above a configured cap: an enumeration cap or a
    series order bound."""


class Infeasible(MapGlueError):
    """Parameters outside the domain of a counting formula, series or
    catalog family."""


class NonIntegral(MapGlueError):
    """An exact division left a remainder (implementation bug)."""


class InternalMismatch(MapGlueError):
    """Internal invariant broken: bubble-map pinches that form no tree over
    the spheres, wicked cuts that cross or split off the wrong spheres, or
    an enumeration level that builds a map twice."""


class FormatError(MapGlueError):
    """Malformed text record."""
