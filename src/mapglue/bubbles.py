"""Gluing along boundaries that are bridgeless but not simple.

Gluing a tree into a non-simple boundary still identifies boundary edge i
with boundary edge j whenever contour steps i and j traverse the same tree
edge.  Whenever a repeated boundary vertex is identified with itself — its
two occurrences fall in the same contour class ("wicked") — the result is
no longer a planar map: the vertex pinches the sphere, and the object
decomposes into a tree of spheres joined at pinch vertices, a bubble-map.
The decoration is recorded as the image of the tree contour, a
non-self-crossing circuit traversing every support edge exactly twice.

The tree is recovered from the circuit alone by a left-to-right scan: a
step along an already-visited edge lowers the contour, any other step
raises it (revisited vertices are conceptually duplicated, which does not
affect the contour values).  Ungluing then doubles every circuit edge so
that the new darts form a fresh external face, re-thickening the pinch
vertices in the process.

The wicked and non-crossing checks each run in one pass.  Wicked
identifications come from one grouping of the boundary positions by
(vertex, contour class).  The non-crossing test walks the vertex cycles
once to give every dart its rotation position, then runs a stack check of
the corner chords at each vertex.  At a pinch vertex the positions list
the pinched copies in sphere order; the verdicts depend on that order,
which reports a crossing on some exact round trips through a pinch vertex
(``bench/README.md``, known defect 2).

Boundaries with bridges are refused: two bridges identified by the tree
would force the circuit through the same oriented edge twice, and the
gluing cannot be reversed.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    BoundaryHasBridge,
    CircuitMissesPinch,
    EmptyTree,
    FormatError,
    InternalMismatch,
    MalformedCircuit,
    SizeMismatch,
)
from .maps import BoundaryMap, PlanarMap, build_map, map_from_line, map_to_line
from .trees import DyckPath, contour_classes, contour_to_tree, tree_to_contour
from .bijection import _contour_matching, _cut, _sew


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
        seen = {0}
        pending = list(self.pinches)
        while pending:
            progress = False
            for p in list(pending):
                a, _, b, _ = p
                if a in seen or b in seen:
                    seen.update((a, b))
                    pending.remove(p)
                    progress = True
            if not progress:
                raise InternalMismatch("pinches do not connect the spheres")
        if seen != set(range(k)):
            raise InternalMismatch("pinches do not connect the spheres")

    # -- global dart addressing -------------------------------------------

    @cached_property
    def _offsets(self) -> tuple[int, ...]:
        out = [0]
        for s in self.spheres:
            out.append(out[-1] + s.dart_count)
        return tuple(out)

    @cached_property
    def _pinch_parent(self) -> dict:
        """Union-find forest identifying the pinched vertex copies."""
        parent: dict = {}
        for a, va, b, vb in self.pinches:
            _union(parent, (a, va), (b, vb))
        return parent

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
        offs = self._offsets
        k = bisect_left(offs, g, 1) - 1
        if k == len(self.spheres):
            raise FormatError(f"dart {g} out of range")
        return k, g - offs[k]

    def to_global(self, sphere: int, d: int) -> int:
        return self._offsets[sphere] + d

    def alpha_of(self, g: int) -> int:
        k, d = self.to_local(g)
        return self.to_global(k, self.spheres[k].alpha_of(d))

    def edge_of(self, g: int) -> int:
        return min(g, self.alpha_of(g))

    @cached_property
    def _corners(self) -> tuple[list, list[int]]:
        """Pinch-collapsed vertex and rotation position of every global
        dart (index 0 unused), from one walk over the vertex cycles.

        The positions of a vertex list the sigma cycles of its pinched
        copies one after another: by sphere index, then in
        :meth:`~mapglue.maps.PlanarMap.vertices` order, each cycle from its
        smallest dart.
        """
        parent = self._pinch_parent
        rep: list = [None] * (self.dart_count + 1)
        rank = [0] * (self.dart_count + 1)
        size: dict = {}
        for k, (off, s) in enumerate(zip(self._offsets, self.spheres)):
            for cyc in s.vertices():
                v = _find(parent, (k, cyc[0]))
                base = size.get(v, 0)
                for i, d in enumerate(cyc, base):
                    rep[off + d] = v
                    rank[off + d] = i
                size[v] = base + len(cyc)
        return rep, rank

    def vertex_of(self, g: int) -> tuple[int, int]:
        """(sphere, local vertex id) of the tail of ``g``, pinch-collapsed:
        pinched copies share one representative."""
        if not 1 <= g <= self.dart_count:
            raise FormatError(f"dart {g} out of range")
        return self._corners[0][g]

    def darts(self) -> range:
        return range(1, self.dart_count + 1)


def _find(parent: dict, x):
    while x in parent:
        x = parent[x]
    return x


def _union(parent: dict, x, y) -> None:
    rx, ry = _find(parent, x), _find(parent, y)
    if rx != ry:
        parent[max(rx, ry)] = min(rx, ry)


@dataclass(frozen=True)
class Circuit:
    """A closed walk of darts (globally addressed) in a bubble-map."""

    bubble: BubbleMap
    darts: tuple[int, ...]

    def validate(self) -> None:
        """Raise MalformedCircuit unless heads chain onto tails and every
        support edge is traversed exactly twice."""
        bub = self.bubble
        if not self.darts or len(self.darts) % 2:
            raise MalformedCircuit("circuit length must be a positive "
                                   "even number")
        for g in self.darts:
            if not 1 <= g <= bub.dart_count:
                raise MalformedCircuit(f"dart {g} out of range")
        for g, h in zip(self.darts, self.darts[1:] + self.darts[:1]):
            if bub.vertex_of(bub.alpha_of(g)) != bub.vertex_of(h):
                raise MalformedCircuit(
                    f"head of dart {g} is not the tail of dart {h}")
        edges: dict[int, int] = {}
        for g in self.darts:
            e = bub.edge_of(g)
            edges[e] = edges.get(e, 0) + 1
        if any(c != 2 for c in edges.values()):
            raise MalformedCircuit("every support edge must be traversed "
                                   "exactly twice")

    def is_non_crossing(self) -> bool:
        """No interleaved visit pattern at any vertex.

        Each pass through a vertex occupies the corner between the reversed
        incoming dart and the outgoing dart; the circuit is non-crossing
        when these corner chords never interleave in the rotation order.
        One scan buckets the chords by pinch-collapsed vertex, with the
        positions of ``BubbleMap._corners``, and :func:`_nested` decides
        each bucket.  At a pinch vertex the positions run through the
        copies in sphere order.  Chords can straddle two copies, so that
        order decides some verdicts: it gives False on some exact round
        trips (``bench/README.md``, known defect 2).
        """
        bub = self.bubble
        rep, rank = bub._corners
        chords: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for prev, g in zip(self.darts[-1:] + self.darts[:-1], self.darts):
            v = bub.vertex_of(g)
            a = bub.alpha_of(prev)
            if rep[a] != v:
                raise MalformedCircuit(
                    f"head of dart {prev} is not the tail of dart {g}")
            chords.setdefault(v, []).append((rank[a], rank[g]))
        return all(_nested(c) for c in chords.values())


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
    """Recover the tree contour from a circuit.

    Scan the circuit once: a step along an already-visited edge lowers the
    contour by one, any other step (a new edge, whether or not its head
    vertex was seen before) raises it by one.  Splitting revisited vertices
    only changes the embedding bookkeeping, never the contour values.
    """
    circuit.validate()
    return _scan_contour(circuit)


def _scan_contour(circuit: Circuit) -> DyckPath:
    """:func:`circuit_to_contour` of a circuit already validated."""
    seen: set[int] = set()
    steps = []
    for g in circuit.darts:
        e = circuit.bubble.edge_of(g)
        if e in seen:
            steps.append(-1)
        else:
            seen.add(e)
            steps.append(1)
    try:
        return DyckPath(tuple(steps))
    except Exception as exc:
        raise MalformedCircuit(f"scan does not close into a contour: {exc}")


def detect_wicked(bmap: BoundaryMap, tree: PlanarMap):
    """Boundary vertices glued to themselves.

    Returns ``(vertex, positions)`` pairs: a boundary vertex together with
    the boundary positions at which it recurs inside a single contour class
    of the tree.  Empty exactly when :func:`glue_bridgeless` yields a
    single sphere.
    """
    if not bmap.is_bridgeless():
        raise BoundaryHasBridge("boundary uses an edge twice")
    m = tree.edge_count
    if bmap.perimeter != 2 * m:
        raise SizeMismatch(f"perimeter {bmap.perimeter} != 2*{m} tree edges")
    out = []
    for v, classes in _boundary_groups(bmap, tree):
        hits = sorted(p for ps in classes if len(ps) >= 2 for p in ps)
        if hits:
            out.append((v, tuple(hits)))
    return out


def _position_classes(tree: PlanarMap) -> list[int]:
    """Contour-class index of each contour position 0..2m-1."""
    path = tree_to_contour(tree)
    cls_of = [0] * (2 * tree.edge_count)
    for c, cls in enumerate(contour_classes(path)):
        for p in cls:
            if p < len(cls_of):
                cls_of[p] = c
    return cls_of


def _boundary_groups(bmap: BoundaryMap, tree: PlanarMap):
    """Boundary positions grouped by (vertex, contour class) in one pass.

    Returns ``(vertex, classes)`` pairs by ascending vertex; ``classes``
    holds the ascending positions of each contour class the vertex occurs
    in, ordered by their first position.  Boundary darts run against the
    contour, so the vertex sitting at contour position p is the head of
    the dart at label p.
    """
    pmap = bmap.map
    vertex = {d: cyc[0] for cyc in pmap.vertices() for d in cyc}
    cls_of = _position_classes(tree)
    groups: dict[int, dict[int, list[int]]] = {}
    for p, d in enumerate(bmap.boundary_walk()):
        v = vertex[pmap.alpha_of(d)]
        groups.setdefault(v, {}).setdefault(cls_of[p], []).append(p)
    return [(v, list(groups[v].values())) for v in sorted(groups)]


def _wicked_cuts(bmap: BoundaryMap, tree: PlanarMap):
    """Laminar intervals [a, b) of boundary positions pinched off by wicked
    identifications, as (a, b, vertex) triples."""
    cuts = [(a, b, v) for v, classes in _boundary_groups(bmap, tree)
            for ps in classes for a, b in zip(ps, ps[1:])]
    if not _nested((a, b) for a, b, _ in cuts):
        raise InternalMismatch("wicked cuts cross")
    return cuts


def glue_bridgeless(bmap: BoundaryMap, tree: PlanarMap):
    """Sew a bridgeless boundary shut along the contour of ``tree``.

    Returns ``(bubble, circuit)``.  With no wicked vertex the bubble has a
    single sphere and agrees with :func:`~mapglue.bijection.glue`; each
    wicked identification splits one more sphere off at a pinch vertex.
    """
    if not bmap.is_bridgeless():
        raise BoundaryHasBridge("boundary uses an edge twice")
    m = tree.edge_count
    if m == 0:
        raise EmptyTree("cannot glue a tree without edges")
    if bmap.perimeter != 2 * m:
        raise SizeMismatch(f"perimeter {bmap.perimeter} != 2*{m} tree edges")
    pmap = bmap.map
    walk = list(bmap.boundary_walk())
    sigma, alpha, index = _sew(pmap, walk, _contour_matching(tree))
    n = len(sigma)
    root_new = index[pmap.alpha_of(walk[0])]
    # circuit step p is the image of contour step p: the survivor partner
    # of the boundary dart at label p (so the circuit starts at the root)
    circuit_raw = [index[pmap.alpha_of(b)] for b in walk]

    cuts = _wicked_cuts(bmap, tree)
    if not cuts:
        glued = build_map(sigma, alpha, root_new)
        bubble = BubbleMap((glued,))
        return bubble, Circuit(bubble, tuple(circuit_raw))

    # rebuilding sigma from the internal faces separates the rotation at
    # every pinch vertex on its own (the two sides of a wicked
    # identification share no internal face), so the spheres are exactly
    # the connected components of the sewn structure
    parent: dict[int, int] = {}
    for d in range(1, n + 1):
        _union(parent, d, alpha[d - 1])
        _union(parent, d, sigma[d - 1])
    members: dict[int, list[int]] = {}
    for d in range(1, n + 1):
        members.setdefault(_find(parent, d), []).append(d)
    comps = sorted(members, key=lambda c: (c != _find(parent, root_new), c))
    if len(comps) != len(cuts) + 1:
        raise InternalMismatch("component count does not match the wicked "
                               "identifications")
    spheres = []
    local: dict[int, tuple[int, int]] = {}
    for k, c in enumerate(comps):
        ds = members[c]
        li = {d: i + 1 for i, d in enumerate(ds)}
        for d in ds:
            local[d] = (k, li[d])
        ls = [li[sigma[d - 1]] for d in ds]
        la = [li[alpha[d - 1]] for d in ds]
        root_loc = li[root_new] if k == 0 else 1
        spheres.append(build_map(ls, la, root_loc))

    pinches = []
    for a, b, v in cuts:
        # the cut pinches the component carrying boundary edge a onto the
        # one carrying boundary edge b; both circuit darts start at the
        # pinch vertex
        ka, da = local[circuit_raw[a]]
        kb, db = local[circuit_raw[b]]
        if ka == kb:
            raise InternalMismatch("wicked identification did not "
                                   "disconnect the spheres")
        pinches.append((ka, spheres[ka].vertex_of(da),
                        kb, spheres[kb].vertex_of(db)))

    bubble = BubbleMap(tuple(spheres), tuple(sorted(pinches)))
    offs = bubble.offsets()
    circuit = tuple(offs[local[d][0]] + local[d][1] for d in circuit_raw)
    return bubble, Circuit(bubble, circuit)


def unglue_bubble(bubble: BubbleMap, circuit: Circuit):
    """Cut a circuit-decorated bubble-map open along its circuit.

    Returns ``(tree, bmap)``; the inverse of :func:`glue_bridgeless`.
    Every circuit edge is doubled, the new darts form the external face in
    reverse circuit order, and pinch vertices regain thickness because the
    duplicated darts all join that face.
    """
    circuit.validate()
    on_circuit = {bubble.vertex_of(g) for g in circuit.darts}
    for a, va, b, vb in bubble.pinches:
        if bubble.vertex_of(bubble.to_global(a, va)) not in on_circuit:
            raise CircuitMissesPinch(
                f"circuit avoids the pinch at sphere {a} vertex {va}")
    root = bubble.root
    if root not in circuit.darts and bubble.alpha_of(root) not in circuit.darts:
        raise MalformedCircuit("circuit does not contain the root edge")

    phi = []
    alpha = []
    for off, s in zip(bubble.offsets(), bubble.spheres):
        phi += [off + s.phi_of(d) for d in s.darts()]
        alpha += [off + a for a in s.alpha]
    bmap = BoundaryMap(build_map(*_cut(phi, alpha, circuit.darts)))
    tree = contour_to_tree(_scan_contour(circuit))
    return tree, bmap


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
    otherwise its starting point is part of the identity.
    """
    best = None
    for key in _canonical_keys(bubble, circuit.darts, cyclic):
        if best is None or key < best:
            best = key
    return best


def _canonical_keys(bubble, circuit_darts, cyclic):
    offs = bubble.offsets()
    first = bubble.spheres[0]
    image0 = first.canonical_relabelling()
    stack = [({0: image0}, [0])]
    while stack:
        images, order = stack.pop()
        if len(order) == len(bubble.spheres):
            yield _assemble_key(bubble, images, order, circuit_darts, cyclic)
            continue
        # expand along the smallest reachable pinch, deterministically
        options = []
        for a, va, b, vb in bubble.pinches:
            for known, new, vk, vn in ((a, b, va, vb), (b, a, vb, va)):
                if known in order and new not in order:
                    rank = (order.index(known),
                            _image_vertex(bubble.spheres[known],
                                          images[known], vk))
                    options.append((rank, new, vn))
        if not options:
            continue
        options.sort()
        rank0 = options[0][0]
        for rank, new, vn in options:
            if rank != rank0:
                break
            sph = bubble.spheres[new]
            for d in sph.darts():
                if sph.vertex_of(d) != vn:
                    continue
                stack.append(({**images,
                               new: sph.canonical_relabelling(root=d)},
                              order + [new]))


def _image_vertex(sphere, image, v) -> int:
    return min(image[d] for d in sphere.darts()
               if sphere.vertex_of(d) == v)


def _assemble_key(bubble, images, order, circuit_darts, cyclic):
    offs_old = bubble.offsets()
    pos = {old: new for new, old in enumerate(order)}
    counts = [bubble.spheres[old].dart_count for old in order]
    offs_new = [0]
    for c in counts:
        offs_new.append(offs_new[-1] + c)
    sphere_codes = []
    for new, old in enumerate(order):
        s = bubble.spheres[old].relabel(images[old])
        # only the root sphere's root is meaningful
        sphere_codes.append(s.sigma + s.alpha
                            + ((s.root,) if new == 0 else ()))
    pinch_key = tuple(sorted(
        tuple(sorted(((pos[a], _image_vertex(bubble.spheres[a], images[a],
                                             va)),
                      (pos[b], _image_vertex(bubble.spheres[b], images[b],
                                             vb)))))
        for a, va, b, vb in bubble.pinches))
    circ = []
    for g in circuit_darts:
        k = next(i for i in range(len(bubble.spheres))
                 if g <= offs_old[i + 1])
        circ.append(offs_new[pos[k]] + images[k][g - offs_old[k]])
    if cyclic:
        rots = [tuple(circ[i:] + circ[:i]) for i in range(len(circ))]
        circ = min(rots)
    else:
        circ = tuple(circ)
    return (tuple(sphere_codes), pinch_key, circ)


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
    if not lines or not lines[0].startswith("bubble spheres="):
        raise FormatError("expected a 'bubble spheres=' header")
    try:
        count = int(lines[0].split("=", 1)[1])
    except ValueError:
        raise FormatError("malformed sphere count")
    if len(lines) < count + 1:
        raise FormatError("missing sphere records")
    spheres = tuple(map_from_line(ln) for ln in lines[1:count + 1])
    pinches: tuple = ()
    circuit_darts = None
    for ln in lines[count + 1:]:
        body = ln.split("=", 1)[-1]
        try:
            if ln.startswith("pinch="):
                out = []
                for item in body.split(",") if body else ():
                    left, right = item.split("~")
                    a, va = left.split(".")
                    b, vb = right.split(".")
                    out.append((int(a) - 1, int(va), int(b) - 1, int(vb)))
                pinches = tuple(out)
            elif ln.startswith("circuit="):
                circuit_darts = tuple(int(x) for x in body.split(","))
            else:
                raise FormatError(f"unexpected line {ln!r}")
        except ValueError as exc:
            raise FormatError(f"malformed line {ln!r}") from exc
    bubble = BubbleMap(spheres, pinches)
    circuit = (Circuit(bubble, circuit_darts)
               if circuit_darts is not None else None)
    return bubble, circuit
