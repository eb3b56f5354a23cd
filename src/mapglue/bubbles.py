"""Gluing along boundaries that are bridgeless but not simple.

Gluing a tree into a non-simple boundary still identifies boundary edge i
with boundary edge j whenever contour steps i and j traverse the same tree
edge.  Whenever a repeated boundary vertex is identified with itself — its
two occurrences fall in the same contour class ("wicked") — the result is
no longer a planar map: the vertex pinches the sphere, and the object
decomposes into a tree of spheres joined at pinch vertices, a bubble-map.
The decoration is recorded as the image of the tree contour, a
non-self-crossing circuit traversing every support edge exactly twice.

The tree is recovered from the circuit alone by a left-to-right scan,
made when the circuit is checked: a step along an already-visited edge
lowers the contour, any other step raises it (revisited vertices are
conceptually duplicated, which does not affect the contour values).
Ungluing then doubles every circuit edge so that the new darts form a
fresh external face, re-thickening the pinch vertices in the process.

Gluing walks the boundary face once and reads the tree's contour once:
that walk decides the bridge and size checks and gives the darts to sew,
and the contour matching gives the Dyck path.  Wicked identifications come
from one grouping of the boundary positions by (vertex, contour class);
the contour classes of a small tree are kept with its matching.  The
kernels build their maps directly and check only what can fail: a
single-sphere gluing checks that it is connected (it is not on the inputs
of ``bench/README.md``'s known defect 1), the spheres of a pinched gluing
are its connected components, each a disc sewn along a non-crossing
pairing, and ungluing checks that the cut map is connected and planar.
Some crossing circuits pass that check, and gluing their cut gives back
another bubble-map (known defect 4, ``ROADMAP.md`` item 1).

A bubble-map and a circuit are checked once, where they enter the
library.  A circuit's check (darts in range, heads chained onto tails,
every support edge traversed once in each direction, so that cutting
along it always gives a rotation system) records its contour.
:func:`glue_bridgeless` skips both checks (``BubbleMap._built``,
``Circuit._traced``): it hands over its sewn tables, or its component
relabelling, as the global dart tables, and the tree's Dyck path as the
contour.  The circuit kernels (the non-crossing test and the pinch check
of ungluing) index those tables directly.  The non-crossing test walks
the vertex cycles once to give every dart its rotation position, then
runs a stack check of the corner chords at each vertex.
At a pinch vertex the positions list the pinched copies in sphere order;
the verdicts depend on that order, which reports a crossing on some exact
round trips through a pinch vertex (``bench/README.md``, known defect 2).

Boundaries with bridges are refused: two bridges identified by the tree
would force the circuit through the same oriented edge twice, and the
gluing cannot be reversed.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .errors import (
    BoundaryHasBridge,
    CircuitMissesPinch,
    Disconnected,
    EmptyTree,
    FormatError,
    InternalMismatch,
    MalformedCircuit,
    SizeMismatch,
)
from .maps import (BoundaryMap, PlanarMap, _connected_vertex_count, _find,
                   _ints, _on_sphere, _record, _union, _vertex_ids,
                   map_from_line, map_to_line)
from .trees import DyckPath, contour_to_tree
from .bijection import _contour_tables, _cut, _frame, _sew


@dataclass(frozen=True)
class BubbleMap:
    """A tree of spheres joined at pinch vertices.

    Sphere 0 carries the root.  Darts are addressed globally by offsetting
    each sphere's 1-based darts by the total dart count of the earlier
    spheres.  A pinch ``(a, va, b, vb)`` identifies vertex ``va`` of sphere
    ``a`` with vertex ``vb`` of sphere ``b`` (vertices are named by their
    smallest local dart).  The constructor checks that the pinches join
    the spheres into a tree and name vertices; :meth:`_built` does not.
    """

    spheres: tuple[PlanarMap, ...]
    pinches: tuple[tuple[int, int, int, int], ...] = ()

    def __post_init__(self):
        k = len(self.spheres)
        if k == 0:
            raise FormatError("a bubble-map needs at least one sphere")
        # the sphere-incidence graph must be a tree
        if len(self.pinches) != k - 1:
            raise InternalMismatch("pinch count must be sphere count - 1")
        parent: dict = {}
        for a, va, b, vb in self.pinches:
            if not (0 <= a < k and 0 <= b < k and _union(parent, a, b)):
                raise InternalMismatch("pinches do not connect the spheres")
            # a vertex is named by its smallest local dart
            for j, v in ((a, va), (b, vb)):
                s = self.spheres[j]
                if not (1 <= v <= s.dart_count and s.vertex_of(v) == v):
                    raise FormatError(f"pinch names no vertex {v} of "
                                      f"sphere {j}")
        offsets = [0]
        sigma: list[int] = []
        alpha: list[int] = []
        for s in self.spheres:
            off = offsets[-1]
            sigma += [off + x for x in s.sigma]
            alpha += [off + a for a in s.alpha]
            offsets.append(off + len(s.sigma))
        self._lay_out(tuple(offsets), tuple(sigma), tuple(alpha))

    @classmethod
    def _built(cls, spheres: tuple[PlanarMap, ...], pinches, offsets,
               sigma, alpha) -> "BubbleMap":
        """The bubble-map of ``spheres`` and ``pinches``, trusted to form
        one, with the global ``offsets`` and tables ``sigma`` and
        ``alpha`` that the constructor would lay out."""
        bubble = object.__new__(cls)
        object.__setattr__(bubble, "spheres", spheres)
        object.__setattr__(bubble, "pinches", pinches)
        bubble._lay_out(offsets, sigma, alpha)
        return bubble

    def _lay_out(self, offsets: tuple[int, ...], sigma, alpha) -> None:
        """Keep the global tables, built once: the map is immutable.
        ``_offsets[k]`` counts the darts of the spheres before sphere k
        (the last entry counts them all), ``_table`` holds the global
        sigma and alpha as flat image sequences (dart g at index g - 1)
        and ``_corners`` is :func:`_corner_table` of them."""
        object.__setattr__(self, "_offsets", offsets)
        object.__setattr__(self, "_table", (sigma, alpha))
        object.__setattr__(self, "_corners",
                           _corner_table(sigma, offsets, self.pinches))

    # -- global dart addressing -------------------------------------------

    @property
    def dart_count(self) -> int:
        return self._offsets[-1]

    @property
    def root(self) -> int:
        return self.spheres[0].root


def _corner_table(sigma, offsets, pinches) -> tuple[list[int], list[int]]:
    """``BubbleMap._corners``: the pinch-collapsed vertex and the rotation
    position of every global dart (index 0 unused), from one walk over the
    cycles of the global ``sigma``.

    A vertex is named by its smallest pinched copy, as the global dart
    that names that copy.  Its positions list the sigma cycles of its
    copies one after another: each cycle is first met at its smallest
    dart, so they come by sphere index, then in
    :meth:`~mapglue.maps.PlanarMap.vertices` order.
    """
    parent: dict = {}  # identifies the pinched vertex copies
    for a, va, b, vb in pinches:
        _union(parent, offsets[a] + va, offsets[b] + vb)
    rep = [0] * (len(sigma) + 1)
    rank = [0] * (len(sigma) + 1)
    size = [0] * (len(sigma) + 1)  # the positions taken at each vertex
    for start in range(1, len(sigma) + 1):
        if rep[start]:
            continue
        v = _find(parent, start)
        i = size[v]
        d = start
        while not rep[d]:
            rep[d] = v
            rank[d] = i
            i += 1
            d = sigma[d - 1]
        size[v] = i
    return rep, rank


_TWICE = ("every support edge must be traversed exactly twice, once in "
          "each direction")


@dataclass(frozen=True)
class Circuit:
    """A closed walk of darts (globally addressed) in a bubble-map.

    Checked once, when it is made: MalformedCircuit unless its length is
    even and positive, every dart is one of 1..2E, heads chain onto tails
    and every support edge is traversed exactly twice, once in each
    direction.  The walk that checks the last two also records the
    contour, read by :func:`circuit_to_contour`: the first traversal of an
    edge goes up, the second down, which is a Dyck path once every edge is
    taken twice.  The kernels that take a circuit trust it, and
    :func:`glue_bridgeless` makes its circuits with :meth:`_traced`, which
    checks nothing.
    """

    bubble: BubbleMap
    darts: tuple[int, ...]

    def __post_init__(self):
        darts = self.darts
        if not darts or len(darts) % 2:
            raise MalformedCircuit("circuit length must be a positive "
                                   "even number")
        # before any table lookup: darts 0 and -1 would wrap around a list
        n = self.bubble.dart_count
        if min(darts) < 1 or max(darts) > n:
            stray = next(g for g in darts if not 1 <= g <= n)
            raise MalformedCircuit(f"dart {stray} out of range")
        rep = self.bubble._corners[0]
        alpha = self.bubble._table[1]
        taken = [False] * (n + 1)
        steps = []
        p = darts[-1]
        for g in darts:
            if rep[alpha[p - 1]] != rep[g]:
                raise MalformedCircuit(
                    f"head of dart {p} is not the tail of dart {g}")
            if taken[g]:
                raise MalformedCircuit(_TWICE + f" (dart {g} repeats)")
            taken[g] = True
            steps.append(-1 if taken[alpha[g - 1]] else 1)
            p = g
        # with no dart repeated, the steps sum to 0 exactly when every
        # dart's partner is taken too
        if sum(steps):
            raise MalformedCircuit(_TWICE)
        object.__setattr__(self, "_contour", DyckPath(tuple(steps)))

    @classmethod
    def _traced(cls, bubble: BubbleMap, darts: tuple[int, ...],
                contour: DyckPath) -> "Circuit":
        """The circuit ``darts`` of ``bubble``, trusted to be one, whose
        contour is ``contour``."""
        circuit = object.__new__(cls)
        object.__setattr__(circuit, "bubble", bubble)
        object.__setattr__(circuit, "darts", darts)
        object.__setattr__(circuit, "_contour", contour)
        return circuit

    def is_non_crossing(self) -> bool:
        """No interleaved visit pattern at any vertex.

        Each pass through a vertex occupies the corner between the reversed
        incoming dart and the outgoing dart; the circuit is non-crossing
        when these corner chords never interleave in the rotation order.
        One scan buckets the chords by pinch-collapsed vertex, with the
        positions of ``BubbleMap._corners``, and :func:`_nested` decides
        each bucket of two or more chords (one chord cannot cross; most
        buckets hold one).  At a pinch vertex the positions run through the
        copies in sphere order.  Chords can straddle two copies, so that
        order decides some verdicts: it gives False on some exact round
        trips (``bench/README.md``, known defect 2).
        """
        darts = self.darts
        rep, rank = self.bubble._corners
        alpha = self.bubble._table[1]
        chords: dict[int, list[tuple[int, int]]] = {}
        for prev, g in zip(darts[-1:] + darts[:-1], darts):
            chords.setdefault(rep[g], []).append((rank[alpha[prev - 1]],
                                                  rank[g]))
        return all(len(c) == 1 or _nested(c) for c in chords.values())


def _nested(chords) -> bool:
    """True when no two chords with four distinct endpoints interleave.

    Chords sharing an endpoint never cross; that includes duplicate chords
    and degenerate ``(a, a)`` ones.  The chords are swept by left end,
    wider first, over a stack of open right ends: a chord closes before
    another opens at the same position, and inner chords close first.
    """
    open_ends: list[int] = []
    for lo, hi in sorted(((min(c), max(c)) for c in chords),
                         key=lambda c: (c[0], -c[1])):
        while open_ends and open_ends[-1] <= lo:
            open_ends.pop()
        if open_ends and open_ends[-1] < hi:
            return False
        open_ends.append(hi)
    return True


def circuit_to_contour(circuit: Circuit) -> DyckPath:
    """Recover the tree contour from a circuit: the contour the circuit
    recorded when it was made.

    A step along an already-visited edge lowers the contour by one, any
    other step (a new edge, whether or not its head vertex was seen before)
    raises it by one.  Splitting revisited vertices only changes the
    embedding bookkeeping, never the contour values.
    """
    return circuit._contour


def detect_wicked(bmap: BoundaryMap, tree: PlanarMap):
    """Boundary vertices glued to themselves.

    Returns ``(vertex, positions)`` pairs: a boundary vertex together with
    the boundary positions at which it recurs inside a single contour class
    of the tree.  Empty exactly when :func:`glue_bridgeless` yields a
    single sphere.
    """
    walk = _bridgeless_walk(bmap)
    m = tree.edge_count
    if len(walk) != 2 * m:
        raise SizeMismatch(f"perimeter {len(walk)} != 2*{m} tree edges")
    hits: dict[int, list[int]] = {}
    for v, ps in _boundary_groups(bmap.map, walk, _contour_tables(tree)[1]):
        hits.setdefault(v, []).extend(ps)
    return [(v, tuple(sorted(ps))) for v, ps in hits.items()]


def _bridgeless_walk(bmap: BoundaryMap) -> tuple[int, ...]:
    """:meth:`~mapglue.maps.BoundaryMap.bridgeless_walk` of ``bmap``;
    raises BoundaryHasBridge when it takes an edge twice."""
    walk = bmap.bridgeless_walk()
    if walk is None:
        raise BoundaryHasBridge("boundary uses an edge twice")
    return walk


def _boundary_groups(pmap: PlanarMap, walk, classes):
    """Boundary positions grouped by (vertex, contour class) in one pass
    over the boundary walk ``walk`` of ``pmap``, glued along a contour
    whose position p lies in the class that starts at ``classes[p]``
    (:func:`~mapglue.bijection._contour_tables`).

    Returns a ``(vertex, positions)`` pair for each group of two or more
    positions (a wicked identification), by ascending vertex and then by
    first position; the positions ascend.  Boundary darts run against the
    contour, so the vertex sitting at contour position p is the head of
    the dart at label p.
    """
    vertex = _vertex_ids(pmap.sigma)
    alpha = pmap.alpha
    groups: dict[tuple[int, int], list[int]] = {}
    for p, d in enumerate(walk):
        groups.setdefault((vertex[alpha[d - 1]], classes[p]), []).append(p)
    # a stable sort keeps each vertex's groups in first-position order
    return sorted(((v, ps) for (v, _), ps in groups.items() if len(ps) > 1),
                  key=itemgetter(0))


def _wicked_cuts(pmap: PlanarMap, walk, classes):
    """Laminar intervals [a, b) of boundary positions pinched off by wicked
    identifications, as (a, b, vertex) triples (arguments as for
    :func:`_boundary_groups`)."""
    cuts = [(a, b, v) for v, ps in _boundary_groups(pmap, walk, classes)
            for a, b in zip(ps, ps[1:])]
    if cuts and not _nested((a, b) for a, b, _ in cuts):
        raise InternalMismatch("wicked cuts cross")
    return cuts


def glue_bridgeless(bmap: BoundaryMap, tree: PlanarMap):
    """Sew a bridgeless boundary shut along the contour of ``tree``.

    Returns ``(bubble, circuit)``.  With no wicked vertex the bubble has a
    single sphere and agrees with :func:`~mapglue.bijection.glue`; each
    wicked identification splits one more sphere off at a pinch vertex.
    """
    walk = _bridgeless_walk(bmap)
    m = tree.edge_count
    if m == 0:
        raise EmptyTree("cannot glue a tree without edges")
    if len(walk) != 2 * m:
        raise SizeMismatch(f"perimeter {len(walk)} != 2*{m} tree edges")
    pmap = bmap.map
    match, classes = _contour_tables(tree)
    # circuit step p is the image of contour step p: the survivor partner
    # of the boundary dart at label p (so the circuit starts at the root),
    # and it goes up exactly when it takes its edge first
    frame = _frame(pmap, walk)
    sigma, alpha = _sew(frame, match)
    ends = frame.ends
    contour = DyckPath(tuple([1 if j > i else -1
                              for i, j in enumerate(match)]))

    cuts = _wicked_cuts(pmap, walk, classes)
    if not cuts:
        # the one check that can fail: a boundary vertex recurring in two
        # contour classes can still split the sewn structure, and no
        # wicked identification accounts for it (``bench/README.md``, known
        # defect 1)
        if _connected_vertex_count(sigma, alpha) is None:
            raise Disconnected("the darts do not form a connected map")
        glued = PlanarMap(tuple(sigma), tuple(alpha), ends[0])
        bubble = BubbleMap._built((glued,), (), (0, len(sigma)),
                                  glued.sigma, glued.alpha)
        return bubble, Circuit._traced(bubble, tuple(ends), contour)

    # rebuilding sigma from the internal faces separates the rotation at
    # every pinch vertex on its own (the two sides of a wicked
    # identification share no internal face), so the spheres are exactly
    # the connected components of the sewn structure: the root's first,
    # then by smallest dart, each with its darts in increasing order.  A
    # component is connected by construction, and a disc sewn along a
    # non-crossing pairing is a sphere, so each is built directly
    n = len(sigma)
    sphere = [-1] * (n + 1)
    comps: list[list[int]] = []
    for start in (ends[0], *range(1, n + 1)):
        if sphere[start] >= 0:
            continue
        sphere[start] = k = len(comps)
        comps.append(ds := [start])
        for d in ds:  # also visits the darts appended while it runs
            for e in (sigma[d - 1], alpha[d - 1]):
                if sphere[e] < 0:
                    sphere[e] = k
                    ds.append(e)
        ds.sort()
    if len(comps) != len(cuts) + 1:
        raise InternalMismatch("component count does not match the wicked "
                               "identifications")
    # the global label of each dart: the components' darts one after
    # another, as the bubble-map addresses them
    order = [d for ds in comps for d in ds]
    label = [0] * (n + 1)
    for g, d in enumerate(order, 1):
        label[d] = g
    global_sigma = tuple([label[sigma[d - 1]] for d in order])
    global_alpha = tuple([label[alpha[d - 1]] for d in order])
    offsets = [0]
    spheres = []
    for ds in comps:
        lo = offsets[-1]
        offsets.append(hi := lo + len(ds))
        spheres.append(PlanarMap(
            tuple([g - lo for g in global_sigma[lo:hi]]),
            tuple([g - lo for g in global_alpha[lo:hi]]),
            label[ends[0]] if lo == 0 else 1))

    pinches = []
    for a, b, v in cuts:
        # the cut pinches the component carrying boundary edge a onto the
        # one carrying boundary edge b; both circuit darts start at the
        # pinch vertex
        da, db = ends[a], ends[b]
        ka, kb = sphere[da], sphere[db]
        if ka == kb:
            raise InternalMismatch("wicked identification did not "
                                   "disconnect the spheres")
        pinches.append((ka, spheres[ka].vertex_of(label[da] - offsets[ka]),
                        kb, spheres[kb].vertex_of(label[db] - offsets[kb])))

    bubble = BubbleMap._built(tuple(spheres), tuple(sorted(pinches)),
                              tuple(offsets), global_sigma, global_alpha)
    return bubble, Circuit._traced(bubble, tuple([label[d] for d in ends]),
                                   contour)


def unglue_bubble(bubble: BubbleMap, circuit: Circuit):
    """Cut a circuit-decorated bubble-map open along its circuit.

    Returns ``(tree, bmap)``; the inverse of :func:`glue_bridgeless`.
    Every circuit edge is doubled, the new darts form the external face in
    reverse circuit order, and pinch vertices regain thickness because the
    duplicated darts all join that face.  A circuit takes every support
    edge once in each direction, so the cut is always a rotation system;
    only its connectivity and genus are checked (NonPlanar for a cut of
    higher genus).  Some crossing circuits cut a connected planar map and
    are accepted, although gluing that cut gives another bubble-map
    (known defect 4, ``ROADMAP.md`` item 1).
    """
    if circuit.bubble is not bubble and circuit.bubble != bubble:
        raise MalformedCircuit("the circuit belongs to another bubble-map")
    darts = circuit.darts
    rep = bubble._corners[0]
    offs = bubble._offsets
    on_circuit = {rep[g] for g in darts}
    for a, va, b, vb in bubble.pinches:
        if rep[offs[a] + va] not in on_circuit:
            raise CircuitMissesPinch(
                f"circuit avoids the pinch at sphere {a} vertex {va}")
    sigma, alpha = bubble._table
    root = bubble.root
    if root not in darts and alpha[root - 1] not in darts:
        raise MalformedCircuit("circuit does not contain the root edge")

    sigma, alpha, twins = _cut(sigma, alpha, darts)
    bmap = BoundaryMap(_on_sphere(PlanarMap(tuple(sigma), tuple(alpha),
                                            twins[0])))
    return contour_to_tree(circuit_to_contour(circuit)), bmap


# -- text serialization -------------------------------------------------------

def bubble_to_text(bubble: BubbleMap, circuit: Circuit | None = None) -> str:
    lines = [f"bubble spheres={len(bubble.spheres)}"]
    for s in bubble.spheres:
        lines.append(map_to_line(s))
    lines.append("pinch=" + ",".join(
        f"{a + 1}.{va}~{b + 1}.{vb}" for a, va, b, vb in bubble.pinches))
    if circuit is not None:
        lines.append("circuit=" + ",".join(str(d) for d in circuit.darts))
    return "\n".join(lines)


def bubble_from_text(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = _record(lines[0] if lines else "", "bubble", ("spheres",))
    count = _ints(head["spheres"], count=1)[0]
    if len(lines) < count + 1:
        raise FormatError("missing sphere records")
    spheres = tuple(map_from_line(ln) for ln in lines[1:count + 1])
    # the lines after the spheres are the fields of one more record
    f = _record(" ".join(["bubble", *lines[count + 1:]]), "bubble", (),
                ("pinch", "circuit"))
    pinches = []
    for item in f["pinch"].split(",") if f.get("pinch") else ():
        ends = [_ints(end, ".", 2) for end in item.split("~")]
        if len(ends) != 2:
            raise FormatError(f"a pinch needs a~b: {item!r}")
        (a, va), (b, vb) = ends
        pinches.append((a - 1, va, b - 1, vb))
    try:
        bubble = BubbleMap(spheres, tuple(pinches))
    except InternalMismatch as exc:  # the pinches form no tree
        raise FormatError(str(exc)) from exc
    circuit = (Circuit(bubble, tuple(_ints(f["circuit"])))
               if "circuit" in f else None)
    return bubble, circuit
