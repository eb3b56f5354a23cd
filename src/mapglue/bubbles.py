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
pairing, and ungluing checks that the cut map is connected and planar,
which a crossing circuit is not.

A circuit checks itself once, when it is made: its darts are in range,
heads chain onto tails and every support edge is traversed twice, once in
each direction, so that cutting along it always gives a rotation system.
The walk that checks it records its contour.  The circuit kernels (the
non-crossing test and the pinch check of ungluing) then index the
bubble-map's global dart tables directly.  The non-crossing test walks
each sphere's vertex cycles once to give every dart its rotation
position, then runs a stack check of the corner chords at each vertex.
At a pinch vertex the positions list the pinched copies in sphere order;
the verdicts depend on that order, which reports a crossing on some exact
round trips through a pinch vertex (``bench/README.md``, known defect 2).

The canonical key numbers the darts with one breadth-first search over the
global dart table: from the root through the root sphere, then from the
first circuit dart that enters each sphere not yet reached, in circuit
order.  The circuit fixes where every sphere is entered, so no rooting of
a sphere is searched over; the key up to rotation of the circuit is the
smallest key over its rotations.  Rotations that enter every sphere at the
same darts share one labelling, so each group of them is labelled once.

Boundaries with bridges are refused: two bridges identified by the tree
would force the circuit through the same oriented edge twice, and the
gluing cannot be reversed.
"""

from __future__ import annotations

from bisect import bisect_left
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
from .maps import (BoundaryMap, PlanarMap, _canonical,
                   _connected_vertex_count, _find, _ints, _on_sphere,
                   _record, _union, _vertex_ids, map_from_line, map_to_line)
from .trees import DyckPath, contour_to_tree
from .bijection import _contour_tables, _cut, _sew


@dataclass(frozen=True)
class BubbleMap:
    """A tree of spheres joined at pinch vertices.

    Sphere 0 carries the root.  Darts are addressed globally by offsetting
    each sphere's 1-based darts by the total dart count of the earlier
    spheres.  A pinch ``(a, va, b, vb)`` identifies vertex ``va`` of sphere
    ``a`` with vertex ``vb`` of sphere ``b`` (vertices are named by their
    smallest local dart).
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
        # the global tables, built once here: the map is immutable
        offsets = [0]
        sigma: list[int] = []
        alpha: list[int] = []
        for s in self.spheres:
            off = offsets[-1]
            sigma += [off + x for x in s.sigma]
            alpha += [off + a for a in s.alpha]
            offsets.append(off + len(s.sigma))
        object.__setattr__(self, "_offsets", tuple(offsets))
        # global sigma and alpha as flat image lists (dart g at index g - 1)
        object.__setattr__(self, "_table", (sigma, alpha))
        object.__setattr__(self, "_corners", self._corner_table())

    # -- global dart addressing -------------------------------------------

    def offsets(self) -> list[int]:
        return list(self._offsets)

    @property
    def dart_count(self) -> int:
        return self._offsets[-1]

    @property
    def edge_count(self) -> int:
        return self.dart_count // 2

    @property
    def root(self) -> int:
        return self.spheres[0].root

    def to_local(self, g: int) -> tuple[int, int]:
        if not 1 <= g <= self.dart_count:
            raise FormatError(f"dart {g} out of range")
        offs = self._offsets
        k = bisect_left(offs, g, 1) - 1
        return k, g - offs[k]

    def to_global(self, sphere: int, d: int) -> int:
        return self._offsets[sphere] + d

    def alpha_of(self, g: int) -> int:
        if not 1 <= g <= self.dart_count:
            raise FormatError(f"dart {g} out of range")
        return self._table[1][g - 1]

    def edge_of(self, g: int) -> int:
        return min(g, self.alpha_of(g))

    def _corner_table(self) -> tuple[list, list[int]]:
        """``_corners``: the pinch-collapsed vertex and rotation position
        of every global dart (index 0 unused), from one walk over each
        sphere's vertex cycles.

        The positions of a vertex list the sigma cycles of its pinched
        copies one after another: by sphere index, then in
        :meth:`~mapglue.maps.PlanarMap.vertices` order, each cycle from its
        smallest dart.
        """
        parent: dict = {}  # identifies the pinched vertex copies
        for a, va, b, vb in self.pinches:
            _union(parent, (a, va), (b, vb))
        rep: list = [None] * (self.dart_count + 1)
        rank = [0] * (self.dart_count + 1)
        size: dict = {}
        for k, (off, s) in enumerate(zip(self._offsets, self.spheres)):
            sigma = s.sigma
            for start in range(1, len(sigma) + 1):
                if rep[off + start] is not None:
                    continue
                # a cycle is first met at its smallest dart
                v = _find(parent, (k, start))
                i = size.get(v, 0)
                d = start
                while rep[off + d] is None:
                    rep[off + d] = v
                    rank[off + d] = i
                    i += 1
                    d = sigma[d - 1]
                size[v] = i
        return rep, rank

    def vertex_of(self, g: int) -> tuple[int, int]:
        """(sphere, local vertex id) of the tail of ``g``, pinch-collapsed:
        pinched copies share one representative."""
        if not 1 <= g <= self.dart_count:
            raise FormatError(f"dart {g} out of range")
        return self._corners[0][g]

    def darts(self) -> range:
        return range(1, self.dart_count + 1)


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
    taken twice.  The kernels that take a circuit trust it.
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
        chords: dict[tuple[int, int], list[tuple[int, int]]] = {}
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
    if not _nested((a, b) for a, b, _ in cuts):
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
    sigma, alpha, index = _sew(pmap, walk, match)
    n = len(sigma)
    # circuit step p is the image of contour step p: the survivor partner
    # of the boundary dart at label p (so the circuit starts at the root)
    old_alpha = pmap.alpha
    circuit_raw = [index[old_alpha[b - 1]] for b in walk]
    root_new = circuit_raw[0]

    cuts = _wicked_cuts(pmap, walk, classes)
    if not cuts:
        # the one check that can fail: a boundary vertex recurring in two
        # contour classes can still split the sewn structure, and no
        # wicked identification accounts for it (``bench/README.md``, known
        # defect 1)
        if _connected_vertex_count(sigma, alpha) is None:
            raise Disconnected("the darts do not form a connected map")
        bubble = BubbleMap((PlanarMap(tuple(sigma), tuple(alpha),
                                      root_new),))
        return bubble, Circuit(bubble, tuple(circuit_raw))

    # rebuilding sigma from the internal faces separates the rotation at
    # every pinch vertex on its own (the two sides of a wicked
    # identification share no internal face), so the spheres are exactly
    # the connected components of the sewn structure: the root's first,
    # then by smallest dart, each with its darts in increasing order.  A
    # component is connected by construction, and a disc sewn along a
    # non-crossing pairing is a sphere, so each is built directly
    sphere = [-1] * (n + 1)
    comps: list[list[int]] = []
    for start in (root_new, *range(1, n + 1)):
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
    local = [0] * (n + 1)  # the label of each dart within its sphere
    spheres = []
    for k, ds in enumerate(comps):
        for i, d in enumerate(ds, 1):
            local[d] = i
        spheres.append(PlanarMap(tuple([local[sigma[d - 1]] for d in ds]),
                                 tuple([local[alpha[d - 1]] for d in ds]),
                                 local[root_new] if k == 0 else 1))

    pinches = []
    for a, b, v in cuts:
        # the cut pinches the component carrying boundary edge a onto the
        # one carrying boundary edge b; both circuit darts start at the
        # pinch vertex
        da, db = circuit_raw[a], circuit_raw[b]
        ka, kb = sphere[da], sphere[db]
        if ka == kb:
            raise InternalMismatch("wicked identification did not "
                                   "disconnect the spheres")
        pinches.append((ka, spheres[ka].vertex_of(local[da]),
                        kb, spheres[kb].vertex_of(local[db])))

    bubble = BubbleMap(tuple(spheres), tuple(sorted(pinches)))
    offs = bubble._offsets
    circuit = tuple(offs[sphere[d]] + local[d] for d in circuit_raw)
    return bubble, Circuit(bubble, circuit)


def unglue_bubble(bubble: BubbleMap, circuit: Circuit):
    """Cut a circuit-decorated bubble-map open along its circuit.

    Returns ``(tree, bmap)``; the inverse of :func:`glue_bridgeless`.
    Every circuit edge is doubled, the new darts form the external face in
    reverse circuit order, and pinch vertices regain thickness because the
    duplicated darts all join that face.  A circuit takes every support
    edge once in each direction, so the cut is always a rotation system;
    only its connectivity and genus are checked (a crossing circuit cuts
    a map of higher genus, NonPlanar).
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

    phi = [sigma[a - 1] for a in alpha]
    sigma, alpha, root = _cut(phi, alpha, darts)
    bmap = BoundaryMap(_on_sphere(PlanarMap(tuple(sigma), tuple(alpha),
                                            root)))
    return contour_to_tree(circuit_to_contour(circuit)), bmap


# -- rerooting and canonical keys ---------------------------------------------

def bubble_rerooted(bubble: BubbleMap, g: int):
    """Move the root to global dart ``g``; returns (bubble, dart mapping)."""
    k, d = bubble.to_local(g)
    if k == 0:
        out = BubbleMap((bubble.spheres[0].rerooted(d),)
                        + bubble.spheres[1:], bubble.pinches)
        return out, {x: x for x in bubble.darts()}
    perm = [k] + [i for i in range(len(bubble.spheres)) if i != k]
    inv = {old: new for new, old in enumerate(perm)}
    spheres = []
    for new, old in enumerate(perm):
        s = bubble.spheres[old]
        spheres.append(s.rerooted(d) if old == k else s)
    pinches = tuple(sorted((inv[a], va, inv[b], vb) if inv[a] <= inv[b]
                           else (inv[b], vb, inv[a], va)
                           for a, va, b, vb in bubble.pinches))
    out = BubbleMap(tuple(spheres), pinches)
    old_offs = bubble.offsets()
    new_offs = out.offsets()
    mapping = {}
    for old in range(len(bubble.spheres)):
        for x in bubble.spheres[old].darts():
            mapping[old_offs[old] + x] = new_offs[inv[old]] + x
    return out, mapping


def bubble_canonical_key(bubble: BubbleMap, circuit: Circuit,
                         cyclic: bool = False):
    """Relabelling-invariant identity of a circuit-decorated bubble-map.

    With ``cyclic`` the circuit is compared up to rotation (root anywhere);
    otherwise its starting point is part of the identity.  A cyclic key is
    the smallest key of :func:`_labelled_key` over the rotations of the
    circuit, one labelling for each group of rotations that enter every
    sphere at the same darts.
    """
    if circuit.bubble is not bubble and circuit.bubble != bubble:
        raise MalformedCircuit("the circuit belongs to another bubble-map")
    darts = circuit.darts
    sphere_of = [k for k, s in enumerate(bubble.spheres) for _ in s.darts()]
    # a rotation's labelling depends only on the first circuit dart that
    # enters each non-root sphere, so rotations are grouped by those darts
    met: dict[int, int] = {}
    for g in darts:
        met.setdefault(sphere_of[g - 1], g)
    order = list(met.items())  # (sphere, first dart in it), as met from 0
    if not cyclic:
        return _labelled_key(bubble, darts, _entries(order), (0,))
    groups: dict[tuple[int, ...], list[int]] = {}
    for i in reversed(range(len(darts))):
        # met from i: the order met from i + 1, with the sphere of
        # darts[i] moved to the front and entered at darts[i]
        g = darts[i]
        k = sphere_of[g - 1]
        order = [(k, g)] + [x for x in order if x[0] != k]
        groups.setdefault(_entries(order), []).append(i)
    return min(_labelled_key(bubble, darts, seeds, starts)
               for seeds, starts in groups.items())


def _entries(met) -> tuple[int, ...]:
    """The entry darts of the non-root spheres among ``(sphere, dart)``
    pairs, in order."""
    return tuple(g for k, g in met if k)


def _labelled_key(bubble: BubbleMap, darts, seeds, starts):
    """``(code, pinches, circuit)`` under one breadth-first labelling of
    the global darts: the root sphere from the root, then each other
    sphere from its seed, in seed order.

    ``code`` is the relabelled global sigma then alpha, ``pinches`` the
    sorted pinch pairs with each vertex labelled by the smallest label
    among its darts, and ``circuit`` the smallest relabelled rotation of
    ``darts`` that starts at one of ``starts``.
    """
    sigma, alpha = bubble._table
    code, image = _canonical(sigma, alpha, (bubble.root,) + seeds)
    if len(code) != 2 * len(sigma):
        raise MalformedCircuit("the circuit does not enter every sphere")

    def vertex_label(k: int, v: int) -> int:
        g = d = bubble.to_global(k, v)
        low = image[g]
        while (d := sigma[d - 1]) != g:
            low = min(low, image[d])
        return low

    pinches = tuple(sorted(
        tuple(sorted((vertex_label(a, va), vertex_label(b, vb))))
        for a, va, b, vb in bubble.pinches))
    circ = [image[g] for g in darts]
    return (code, pinches,
            min(tuple(circ[i:] + circ[:i]) for i in starts))


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
