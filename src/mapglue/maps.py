"""Rooted planar maps as rotation systems.

A map on ``2E`` darts (labelled ``1..2E``) is a pair of permutations:
``sigma`` sends a dart to the next dart counterclockwise around its tail
vertex, and ``alpha`` is the fixed-point-free involution exchanging the two
darts of each edge.  Faces are the orbits of ``phi = sigma o alpha`` read as
``phi(d) = sigma(alpha(d))``; the face of a dart lies to its left.  Only
genus-0 rotation systems are accepted.

The root face (the face containing the root dart) doubles as the external
face whenever a map is read as a map with a boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import Disconnected, FormatError, NonPlanar, NotInvolution

Perm = tuple[int, ...]


def _orbit_count(perm) -> int:
    """Number of orbits of a permutation given as a 1-indexed image table."""
    seen = [False] * (len(perm) + 1)
    count = 0
    for start in range(1, len(perm) + 1):
        if seen[start]:
            continue
        count += 1
        d = start
        while not seen[d]:
            seen[d] = True
            d = perm[d - 1]
    return count


def _cycles(perm: Perm) -> list[tuple[int, ...]]:
    """Orbits of a permutation given as a 1-indexed image table."""
    n = len(perm)
    seen = [False] * (n + 1)
    out = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cyc = []
        d = start
        while not seen[d]:
            seen[d] = True
            cyc.append(d)
            d = perm[d - 1]
        out.append(tuple(cyc))
    return out


def _find(parent: dict, x):
    """Representative of ``x`` in the union-find forest ``parent``, which
    maps each joined item to its parent (representatives are absent);
    halves the path it walks."""
    while x in parent:
        p = parent[x]
        parent[x] = x = parent.get(p, p)  # p's parent, or p if it has none
    return x


def _union(parent: dict, x, y) -> bool:
    """Join the classes of ``x`` and ``y``; False when they were already
    one.  The larger representative is linked under the smaller, so every
    class is represented by its smallest item."""
    rx, ry = _find(parent, x), _find(parent, y)
    if rx == ry:
        return False
    if rx < ry:
        rx, ry = ry, rx
    parent[rx] = ry
    return True


def _vertex_ids(sigma: Perm) -> list[int]:
    """Vertex id of every dart as :meth:`PlanarMap.vertex_of` names it
    (index 0 unused): the cycles are met in increasing order of their
    smallest dart, which is the first one the scan reaches."""
    vid = [0] * (len(sigma) + 1)
    for start in range(1, len(sigma) + 1):
        d = start
        while not vid[d]:
            vid[d] = start
            d = sigma[d - 1]
    return vid


@dataclass(frozen=True, slots=True)
class PlanarMap:
    """Immutable rooted planar map.

    Maps are validated once, at the trust boundary: :func:`build_map` runs
    on every map read from outside (map and decorated records, sampler
    exports, catalog files).  The enumeration, the sphere kernels
    (``unglue``, ``glue``, ``glue_partial``, ``glue_forest`` and
    ``contour_to_tree``) and the bubble kernels construct their maps
    directly, with tuple fields and sorted labels; the bubble kernels keep
    only the checks that can fail on a valid input (a connectivity check
    in ``glue_bridgeless`` where a boundary vertex recurs, and
    connectivity and genus in ``unglue_bubble`` on a circuit made by
    ``Circuit``, which may cross), and ``glue_bridgeless`` hands its
    bubble-map and circuit the tables and contour it computed, so neither
    is checked again.  The tests run all these outputs through
    :func:`build_map` (and the bubble-maps and circuits through their
    checking constructors) again.  Use :func:`build_map` for any other
    raw data.

    A catalog map is its own canonical code (:meth:`canonical_code`), and
    shares equal alpha tuples with the other maps of its catalog.  One
    kernel, :func:`_canonical`, writes every canonical code and export.
    """

    sigma: Perm
    alpha: Perm
    root: int
    labels: tuple[tuple[int, str], ...] = field(default=(), compare=False)

    # -- basic accessors ------------------------------------------------

    @property
    def dart_count(self) -> int:
        return len(self.sigma)

    @property
    def edge_count(self) -> int:
        return len(self.sigma) // 2

    def alpha_of(self, d: int) -> int:
        return self.alpha[d - 1]

    def darts(self) -> range:
        return range(1, self.dart_count + 1)

    def edge_of(self, d: int) -> int:
        """Canonical edge id: the smaller dart of the pair."""
        a = self.alpha[d - 1]
        return d if d < a else a

    def edges(self) -> list[int]:
        return [d for d, a in enumerate(self.alpha, 1) if d < a]

    # -- cells ----------------------------------------------------------

    def vertices(self) -> list[tuple[int, ...]]:
        return _cycles(self.sigma)

    def faces(self) -> list[tuple[int, ...]]:
        phi = tuple(self.sigma[a - 1] for a in self.alpha)
        return _cycles(phi)

    def vertex_of(self, d: int) -> int:
        """Canonical vertex id: the smallest dart around the vertex of ``d``."""
        sigma = self.sigma
        m = d
        e = sigma[d - 1]
        while e != d:
            if e < m:
                m = e
            e = sigma[e - 1]
        return m

    @property
    def vertex_count(self) -> int:
        return _orbit_count(self.sigma)

    @property
    def face_count(self) -> int:
        return _orbit_count([self.sigma[a - 1] for a in self.alpha])

    def face_cycle(self, d: int) -> tuple[int, ...]:
        sigma, alpha = self.sigma, self.alpha
        cyc = [d]
        e = sigma[alpha[d - 1] - 1]
        while e != d:
            cyc.append(e)
            e = sigma[alpha[e - 1] - 1]
        return tuple(cyc)

    def root_face(self) -> tuple[int, ...]:
        """Face cycle of the root dart, starting at the root."""
        return self.face_cycle(self.root)

    # -- identity ---------------------------------------------------------

    def canonical_code(self) -> "PlanarMap":
        """Relabelling-invariant identity: the map relabelled by
        :func:`_canonical` from its root, which becomes dart 1, without
        labels.  Two rooted maps are isomorphic exactly when their codes
        are equal; a catalog orders its codes by ``sigma + alpha``."""
        sigma, alpha, _ = _canonical(self.sigma, self.alpha, self.root)
        return PlanarMap(sigma, alpha, 1)

    def rerooted(self, root: int) -> "PlanarMap":
        """The same map rooted at dart ``root``, which must be one of its
        darts (FormatError otherwise)."""
        if not 1 <= root <= len(self.sigma):
            raise FormatError(f"root dart {root} out of range")
        return PlanarMap(self.sigma, self.alpha, root, self.labels)


def _canonical(sigma: Perm, alpha: Perm,
               root: int) -> tuple[Perm, Perm, list[int]]:
    """The one breadth-first labelling behind every canonical code and
    export: from ``root``, which becomes dart 1, sigma before alpha.

    Returns ``(sigma_code, alpha_code, image)``: the relabelled sigma and
    alpha, and ``image[d]``, the new label of dart ``d`` (index 0 unused,
    0 for a dart the root does not reach; the codes leave those out, so
    they are shorter than the arrays).  The codes are written while the
    darts are labelled: the dart dequeued i-th has label i, and the labels
    of its sigma and alpha images are known by the time it is dequeued.
    """
    image = [0] * (len(sigma) + 1)
    image[root] = n = 1
    queue = [root]
    sigma_code: list[int] = []
    alpha_code: list[int] = []
    for d in queue:  # also visits the darts appended while it runs
        e = sigma[d - 1]
        i = image[e]
        if not i:
            n += 1
            image[e] = i = n
            queue.append(e)
        sigma_code.append(i)
        e = alpha[d - 1]
        i = image[e]
        if not i:
            n += 1
            image[e] = i = n
            queue.append(e)
        alpha_code.append(i)
    return tuple(sigma_code), tuple(alpha_code), image


def _connected_vertex_count(sigma: Perm, alpha: Perm) -> int | None:
    """Number of vertices of the rotation system, or None when
    ``<sigma, alpha>`` is not transitive.

    One search from dart 1 takes whole vertex cycles: it marks every dart
    of a cycle and stacks the alpha-partners not yet marked.
    """
    seen = [False] * (len(sigma) + 1)
    stack = [1]
    vertices = reached = 0
    while stack:
        d = stack.pop()
        if seen[d]:
            continue
        vertices += 1
        while not seen[d]:
            seen[d] = True
            reached += 1
            a = alpha[d - 1]
            if not seen[a]:
                stack.append(a)
            d = sigma[d - 1]
    return vertices if reached == len(sigma) else None


def build_map(sigma, alpha, root: int, labels=()) -> PlanarMap:
    """Validate a rotation system and return the map.

    Raises :class:`NotInvolution`, :class:`Disconnected` or
    :class:`NonPlanar` when the data does not describe a rooted map on the
    sphere, and :class:`FormatError` when the root or a label is not on a
    dart of it.
    """
    sigma = tuple(sigma)
    alpha = tuple(alpha)
    n = len(sigma)
    if n == 0 or n % 2 or len(alpha) != n:
        raise NotInvolution("need an equal even number of darts")
    if sorted(sigma) != list(range(1, n + 1)):
        raise NotInvolution("sigma is not a permutation of 1..2E")
    for d, a in enumerate(alpha, 1):
        if not 1 <= a <= n or a == d or alpha[a - 1] != d:
            raise NotInvolution("alpha is not a fixed-point-free involution")
    if not 1 <= root <= n:
        raise FormatError("root dart out of range")
    labels = tuple(sorted(labels))
    if labels:
        darts = [d for d, _ in labels]  # sorted
        if darts[0] < 1 or darts[-1] > n or len(set(darts)) != len(darts):
            raise FormatError("labels must sit on distinct darts of the map")
    return _on_sphere(PlanarMap(sigma, alpha, root, labels))


def _on_sphere(pmap: PlanarMap) -> PlanarMap:
    """``pmap``, whose arrays must be a permutation and a fixed-point-free
    involution, once its rotation system is checked to be connected and of
    genus 0: raises :class:`Disconnected` or :class:`NonPlanar`
    otherwise."""
    vertices = _connected_vertex_count(pmap.sigma, pmap.alpha)
    if vertices is None:
        raise Disconnected("the darts do not form a connected map")
    euler = vertices - pmap.edge_count + pmap.face_count
    if euler != 2:
        raise NonPlanar(f"V - E + F = {euler}, not 2")
    return pmap


_UNWALKED = object()  # a boundary map whose simple walk is not known yet


class BoundaryMap:
    """A planar map read with its root face as external face.

    The map is read-only, and :meth:`simple_walk` is computed at most once
    per boundary map and kept.  ``unglue`` seeds it with the walk of the
    face its cut lays out (:meth:`_walked`), so gluing the pair it returns
    walks no boundary.
    """

    __slots__ = ("_map", "_walk")

    def __init__(self, pmap: PlanarMap):
        self._map = pmap
        self._walk = _UNWALKED

    @classmethod
    def _walked(cls, pmap: PlanarMap, walk: tuple[int, ...]) -> "BoundaryMap":
        """The boundary map of ``pmap`` whose :meth:`simple_walk` is
        ``walk``, which must be the boundary walk of a simple root face."""
        bmap = cls(pmap)
        bmap._walk = walk
        return bmap

    @property
    def map(self) -> PlanarMap:
        return self._map

    @property
    def external_face(self) -> tuple[int, ...]:
        return self._map.root_face()

    @property
    def perimeter(self) -> int:
        return len(self.external_face)

    def boundary_walk(self) -> tuple[int, ...]:
        """Darts of the external face in label order, starting at the root.

        Labels advance against the face orbit (phi runs from label i+1 to
        label i); with this direction, gluing identifies the boundary edge
        at label i with contour step i of the tree.
        """
        cyc = self.external_face
        return (cyc[0],) + tuple(reversed(cyc[1:]))

    def is_bridgeless(self) -> bool:
        return self.bridgeless_walk() is not None

    def bridgeless_walk(self) -> tuple[int, ...] | None:
        """:meth:`boundary_walk`, or None when it takes an edge twice, from
        one walk of the external face that marks its darts: an edge is
        taken twice when a marked dart's partner is marked too.  Unlike
        :meth:`simple_walk` it is not kept."""
        cyc, on = _marked_root_face(self._map)
        alpha = self._map.alpha
        for d in cyc:
            if on[alpha[d - 1]]:
                return None
        return (cyc[0], *cyc[:0:-1])

    def is_vertex_simple(self) -> bool:
        """Boundary walk visits no vertex twice: the boundary is simple,
        or the map is one edge.  A walk through both darts of an edge
        meets an endpoint twice unless each dart follows the other, that
        is unless both endpoints have degree 1."""
        return self._map.edge_count == 1 or self.is_simple()

    def is_simple(self) -> bool:
        """Simple as a curve: no repeated vertex and no repeated edge."""
        return self.simple_walk() is not None

    def simple_walk(self) -> tuple[int, ...] | None:
        """:meth:`boundary_walk`, or None when the boundary is not simple,
        from one walk of the external face, made on the first call and
        kept (or seeded by ``unglue``).

        The face is marked first; then the vertex cycle of each boundary
        dart is walked, and it fails as soon as it meets another marked
        dart (a repeated vertex), as does a dart whose partner is marked
        (a repeated edge).  On a simple boundary every vertex cycle is
        walked once, so the cost is the face plus the degrees of its
        vertices.
        """
        if self._walk is _UNWALKED:
            self._walk = _simple_face_walk(self._map)
        return self._walk


def _marked_root_face(pmap: PlanarMap) -> tuple[list[int], list[bool]]:
    """The root face cycle of ``pmap`` from the root, and whether each
    dart (index 0 unused) lies on it."""
    sigma, alpha = pmap.sigma, pmap.alpha
    on = [False] * (len(sigma) + 1)
    cyc = []
    d = pmap.root
    while not on[d]:
        on[d] = True
        cyc.append(d)
        d = sigma[alpha[d - 1] - 1]
    return cyc, on


def _simple_face_walk(pmap: PlanarMap) -> tuple[int, ...] | None:
    """:meth:`BoundaryMap.simple_walk` of ``pmap``, computed."""
    sigma, alpha = pmap.sigma, pmap.alpha
    cyc, on = _marked_root_face(pmap)
    for d in cyc:
        if on[alpha[d - 1]]:
            return None
        e = sigma[d - 1]
        while e != d:
            if on[e]:
                return None
            e = sigma[e - 1]
    return (cyc[0], *cyc[:0:-1])


# -- text serialization -------------------------------------------------------

def map_to_line(pmap: PlanarMap) -> str:
    parts = [
        "map",
        f"E={pmap.edge_count}",
        f"root={pmap.root}",
        "sigma=" + ",".join(str(x) for x in pmap.sigma),
        "alpha=" + ",".join(str(x) for x in pmap.alpha),
    ]
    if pmap.labels:
        parts.append("labels=" + ",".join(f"{k}:{v}" for k, v in pmap.labels))
    return " ".join(parts)


def _record(line: str, kind: str, required,
            optional=()) -> dict[str, str]:
    """Fields of a ``kind name=value ...`` record: every name is one of
    ``required`` or ``optional``, none repeats, and every required one is
    present.  Values never contain blanks."""
    words = line.split()
    if not words or words[0] != kind:
        raise FormatError(f"expected a {kind!r} record: {line!r}")
    out = {}
    for word in words[1:]:
        name, eq, value = word.partition("=")
        if not eq or name in out or (name not in required
                                     and name not in optional):
            raise FormatError(f"bad, unknown or repeated field {word!r}")
        out[name] = value
    for name in required:
        if name not in out:
            raise FormatError(f"{kind} record has no {name}= field")
    return out


def _ints(text: str, sep: str | None = ",",
          count: int | None = None) -> list[int]:
    """The integers of a ``sep``-separated list (blank-separated when
    ``sep`` is None), exactly ``count`` of them if given."""
    try:
        out = list(map(int, text.split(sep)))
    except ValueError:
        raise FormatError(f"not a list of integers: {text!r}") from None
    if count is not None and len(out) != count:
        raise FormatError(f"expected {count} integers: {text!r}")
    return out


def _map_record(line: str, extra=()) -> tuple[PlanarMap, dict[str, str]]:
    """The map of a ``map`` record that also carries the required fields
    named in ``extra``, and the record's fields."""
    f = _record(line, "map", ("E", "root", "sigma", "alpha", *extra),
                ("labels",))
    e, root = _ints(f"{f['E']},{f['root']}", count=2)
    sigma = _ints(f["sigma"], count=2 * e)
    alpha = _ints(f["alpha"])
    labels = ()
    if "labels" in f:
        items = [item.partition(":") for item in f["labels"].split(",")]
        if not all(colon for _, colon, _ in items):
            raise FormatError(f"a label needs dart:text: {f['labels']!r}")
        darts = _ints(",".join(d for d, _, _ in items))
        labels = zip(darts, [text for _, _, text in items])
    return build_map(sigma, alpha, root, labels), f


def map_from_line(line: str) -> PlanarMap:
    return _map_record(line)[0]
