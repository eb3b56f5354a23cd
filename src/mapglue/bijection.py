"""Gluing and ungluing of tree decorations.

Ungluing cuts a map open along a distinguished tree submap: every tree edge
is doubled and the new darts form a fresh external face whose walk is the
contour of the tree.  Gluing reverses this: the external face of a map with
a simple boundary of perimeter 2m is sewn shut along the vertex equivalence
induced by the contour of an m-edge tree.

One walk, :func:`~mapglue.trees._contour_walk`, reads every tree contour.
Ungluing runs it in place from the map root (the walk also checks that
the decoration is a tree, as :func:`check_tree_decoration` does), and
returns the tree rebuilt from that contour by
:func:`~mapglue.trees.contour_to_tree`: dart ``i + 1`` of the tree is
contour step ``i``, and trees of at most six edges are built once and
shared.  Gluing reads the contour matching of the tree from it, and
takes one walk of each boundary, which decides simplicity and size and
gives the darts to sew.  The boundary map that ungluing returns already
holds that walk: its cut lays the new face out in contour order, so a
round trip walks no boundary.

Both directions run through one kernel each, on flat arrays.  The cutting
kernel :func:`_cut` doubles every dart of a closed walk (a tree contour, or
a bubble-map circuit) and lets the new darts form one face running against
the walk; every other face is carried over unchanged.  Sewing runs in two
stages.  :func:`_frame` deletes a set of boundary darts and fixes all that
does not depend on the tree: the survivors and their new labels, each
survivor's face successor (the next surviving dart along its old face,
skipping deleted ones, so whatever is left of a partly consumed boundary
stays one face), the partner table, the survivors' labels, and the
``ends``, the alpha-partners of the deleted darts.  :func:`_sew` then
pairs the ends along a contour matching.  ``glue``, ``glue_partial``,
``glue_forest`` and ``glue_bridgeless`` run both stages; the sampler keeps
one frame per catalog map and runs only the second for each draw.  Both
kernels rebuild the rotation system as ``sigma = phi o alpha``, and the
round trip is exact on dart ids (up to the final canonical relabelling of
the glued map).

The maps that ungluing and gluing return are built directly, without
:func:`~mapglue.maps.build_map`'s checks: cutting a planar map open along a
tree, or sewing simple, vertex-disjoint boundaries shut along tree
contours, gives a planar map again, and the inputs were checked where they
entered the library.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from operator import not_

from .errors import (
    BoundariesNotDisjoint,
    BoundaryNotSimple,
    DecorationNotATree,
    EmptyTree,
    NotDyck,
    RootNotOnTree,
    SizeMismatch,
    TreeTooLarge,
)
from .maps import (BoundaryMap, PlanarMap, _ints, _map_record, _vertex_ids,
                   map_to_line)
from .trees import _MEMO_EDGES, _contour_walk, _tree_of, class_starts


@dataclass(frozen=True)
class TreeDecoratedMap:
    """A map together with a tree submap, given as a set of edge ids."""

    map: PlanarMap
    tree_edges: frozenset[int]

    @property
    def root_on_tree(self) -> bool:
        return self.map.edge_of(self.map.root) in self.tree_edges


@dataclass(frozen=True)
class MultiBoundaryMap:
    """A map with labelled boundary faces; root dart 1 is the map root."""

    map: PlanarMap
    roots: tuple[int, ...]

    def boundary(self, i: int) -> BoundaryMap:
        return BoundaryMap(self.map.rerooted(self.roots[i]))


@dataclass(frozen=True)
class ForestDecoratedMap:
    map: PlanarMap
    trees: tuple[frozenset[int], ...]
    tree_roots: tuple[int, ...]


def check_tree_decoration(pmap: PlanarMap, tree_edges) -> None:
    """Raise DecorationNotATree unless the edges form a tree submap, which
    the contour walk from the smallest one decides."""
    tree_edges = set(tree_edges)
    if not tree_edges:
        raise DecorationNotATree("edge set is not a tree")
    _decoration_walk(pmap, tree_edges, min(tree_edges))


def _decoration_walk(pmap: PlanarMap, tree_edges, start: int):
    """:func:`~mapglue.trees._contour_walk` of the decoration from
    ``start``; DecorationNotATree when it is no set of edges of a tree."""
    n, alpha = pmap.dart_count, pmap.alpha
    for e in tree_edges:
        if not (1 <= e <= n and e < alpha[e - 1]):
            raise DecorationNotATree("unknown edge ids in decoration")
    try:
        return _contour_walk(pmap, tree_edges, start)
    except NotDyck:
        raise DecorationNotATree("edge set is not a tree") from None


def _tree_contour(pmap: PlanarMap, tree_edges) -> tuple[list[int],
                                                     list[int]]:
    """The darts and steps of the contour of the tree ``tree_edges`` read
    in place in ``pmap`` from its root; the steps are those of a Dyck
    path.  Raises DecorationNotATree unless the edges form a tree, then
    RootNotOnTree."""
    if pmap.edge_of(pmap.root) not in tree_edges:
        # a decoration that is no tree is refused as such first
        check_tree_decoration(pmap, tree_edges)
        raise RootNotOnTree("map root edge must belong to the decoration")
    return _decoration_walk(pmap, tree_edges, pmap.root)


def _contour_tables(tree: PlanarMap):
    """``(match, classes)`` from one contour walk of the plane tree
    ``tree`` (NotDyck when it is none): ``match[i] = j`` when steps i and
    j traverse the same edge, and :func:`~mapglue.trees.class_starts`.
    The tables of a tree with at most ``_MEMO_EDGES`` edges are shared;
    only the bubble kernels read the classes."""
    if tree.dart_count <= 2 * _MEMO_EDGES:
        return _memo_tables(tree)
    return _tables(tree)


def _contour_match(tree: PlanarMap) -> Sequence[int]:
    """The ``match`` of :func:`_contour_tables`, from the shared tables of
    a small tree, else from one contour walk that reads no classes."""
    if tree.dart_count <= 2 * _MEMO_EDGES:
        return _memo_tables(tree)[0]
    return _matching(tree, _contour_walk(tree)[0])


def _tables(tree: PlanarMap):
    walk, steps = _contour_walk(tree)
    return _matching(tree, walk), tuple(class_starts(steps))


def _matching(tree: PlanarMap, walk: list[int]) -> tuple[int, ...]:
    pos = [0] * (len(walk) + 1)
    for i, d in enumerate(walk):
        pos[d] = i
    alpha = tree.alpha
    return tuple([pos[alpha[d - 1]] for d in walk])


# the same room as trees._memo_tree; a raise is never cached
_memo_tables = lru_cache(maxsize=256)(_tables)


def _cut(sigma, alpha, walk):
    """Cut a map open along the closed walk ``walk`` of distinct darts.

    ``sigma`` and ``alpha`` are the vertex and edge permutations as flat
    image sequences (dart d at index d - 1).  Every walk dart gets a new
    twin, labelled after the old darts in increasing order of the dart it
    doubles; the twins form one new face whose orbit runs against the walk
    (phi sends the twin of step i+1 to the twin of step i), which splits
    every vertex the walk passes into its corners.  Every old dart keeps
    its face, so the rotation changes only at the walk darts and their
    twins, each read from ``sigma = phi o alpha``: a walk dart is followed
    by the twin of the step before it, and the twin of d by phi(d).
    Returns ``(sigma, alpha, twins)`` as lists, the twins in walk order:
    rooted at the first twin, they are the boundary walk of the new face
    (:meth:`~mapglue.maps.BoundaryMap.boundary_walk`).
    """
    n = len(sigma)
    order = sorted(walk)
    twin = [0] * (n + 1)
    for t, d in enumerate(order, n + 1):
        twin[d] = t
    twins = [twin[d] for d in walk]
    new_sigma = [*sigma, *[sigma[alpha[d - 1] - 1] for d in order]]
    new_alpha = [*alpha, *order]
    for d, t, before in zip(walk, twins, twins[-1:] + twins[:-1]):
        new_sigma[d - 1] = before
        new_alpha[d - 1] = t
    return new_sigma, new_alpha, twins


def unglue(tdm: TreeDecoratedMap):
    """Cut a tree-decorated map open along its tree.

    Returns ``(tree, bmap)`` with ``tree`` the decoration as a standalone
    plane tree, built from its contour read from the map root (dart
    ``i + 1`` is contour step ``i``; trees of at most six edges are shared,
    see :func:`~mapglue.trees.contour_to_tree`), and ``bmap`` a map with a
    simple boundary of perimeter twice the tree size, whose internal faces
    are the faces of the input in degree-preserving correspondence.  The
    cut lays out that boundary's walk, so ``bmap`` holds it as its
    :meth:`~mapglue.maps.BoundaryMap.simple_walk`.
    """
    pmap = tdm.map
    contour, steps = _tree_contour(pmap, tdm.tree_edges)
    sigma, alpha, twins = _cut(pmap.sigma, pmap.alpha, contour)
    return _tree_of(tuple(steps)), BoundaryMap._walked(
        PlanarMap(tuple(sigma), tuple(alpha), twins[0], pmap.labels),
        tuple(twins))


class _Frame:
    """What sewing shut a set of consumed darts fixes before any matching
    is chosen (:func:`_frame`).  It is only read: :func:`_sew` pairs the
    ends in a copy of ``alpha``, so one frame serves every matching."""

    __slots__ = ("index", "phi", "alpha", "ends", "labels")

    def __init__(self, index: list[int], phi: list[int], alpha: list[int],
                 ends: list[int], labels: tuple[tuple[int, str], ...]):
        self.index = index  # new label of each old dart, 0 if consumed
        self.phi = phi  # face successor of each survivor
        self.alpha = alpha  # partner of each survivor, before sewing
        self.ends = ends  # new label of each consumed dart's partner
        self.labels = labels  # the survivors', relabelled


def _frame(pmap: PlanarMap, consumed: Sequence[int]) -> _Frame:
    """The frame for deleting the ``consumed`` darts of ``pmap``.

    Surviving darts keep their order and are relabelled 1..n; each one's
    face successor is the next surviving dart along its old face, so a face
    that loses some darts keeps the rest as one cycle.  ``ends[i]`` is the
    new label of the alpha-partner of ``consumed[i]``: :func:`_sew` pairs
    those ends along a contour matching.
    """
    old_sigma, old_alpha = pmap.sigma, pmap.alpha
    index = [1] * (len(old_sigma) + 1)  # first whether each dart survives
    index[0] = 0
    for d in consumed:
        index[d] = 0
    survivors = list(compress(range(len(index)), index))
    for k, d in enumerate(survivors, 1):
        index[d] = k
    phi = [index[old_sigma[old_alpha[d - 1] - 1]] for d in survivors]
    # a survivor whose face successor was consumed skips the consumed run
    for k in compress(range(len(phi)), map(not_, phi)):
        e = old_sigma[old_alpha[survivors[k] - 1] - 1]
        while not index[e]:
            e = old_sigma[old_alpha[e - 1] - 1]
        phi[k] = index[e]
    # survivors keep their order, so the labels stay sorted
    return _Frame(index, phi, [index[old_alpha[d - 1]] for d in survivors],
                  [index[old_alpha[b - 1]] for b in consumed],
                  tuple([(index[d], v) for d, v in pmap.labels if index[d]]))


def _sew(frame: _Frame, matching: Sequence[int]):
    """Pair ``frame.ends[i]`` with ``frame.ends[matching[i]]`` and return
    the sewn ``(sigma, alpha)`` as lists, with ``sigma = phi o alpha``."""
    alpha = frame.alpha.copy()
    ends = frame.ends
    for d, j in zip(ends, matching):
        alpha[d - 1] = ends[j]
    phi = frame.phi
    return [phi[a - 1] for a in alpha], alpha


def _decorated(frame: _Frame, matching: Sequence[int],
               root: int) -> TreeDecoratedMap:
    """The map :func:`_sew` makes of ``frame``, rooted at the new dart
    ``root`` and keeping the survivors' labels, decorated by the sewn
    edges: they are the tree's, so each edge id is the smaller dart."""
    sigma, alpha = _sew(frame, matching)
    return TreeDecoratedMap(
        PlanarMap(tuple(sigma), tuple(alpha), root, frame.labels),
        frozenset([d for d in frame.ends if d < alpha[d - 1]]))


def _simple_walk(bmap: BoundaryMap, what: str) -> tuple[int, ...]:
    """:meth:`BoundaryMap.simple_walk`, raising BoundaryNotSimple with the
    message ``what`` when the boundary is not simple."""
    found = bmap.simple_walk()
    if found is None:
        raise BoundaryNotSimple(what)
    return found


def glue(bmap: BoundaryMap, tree: PlanarMap) -> TreeDecoratedMap:
    """Sew the simple boundary of ``bmap`` shut along the contour of ``tree``.

    Boundary edge i is identified with boundary edge j whenever contour
    steps i and j traverse the same tree edge, so the identified edges form
    a copy of the tree; the result is rooted on that tree.
    """
    frame = _glue_frame(bmap, tree.edge_count)
    return _decorated(frame, _contour_match(tree), frame.ends[0])


def _glue_frame(bmap: BoundaryMap, m: int) -> _Frame:
    """The frame of :func:`glue` for an m-edge tree, which consumes the
    whole simple boundary of ``bmap``; :func:`glue`'s errors otherwise."""
    walk = _simple_walk(bmap, "gluing needs a simple boundary")
    if m == 0:
        raise EmptyTree("cannot glue a tree without edges")
    if len(walk) != 2 * m:
        raise SizeMismatch(f"perimeter {len(walk)} != 2*{m} tree edges")
    return _frame(bmap.map, walk)


def glue_partial(bmap: BoundaryMap, tree: PlanarMap) -> TreeDecoratedMap:
    """Glue a tree along the first part of a larger simple boundary.

    The boundary edges labelled 0..2m2-1 are consumed; the result keeps a
    simple external face of perimeter 2m1 rooted at the former edge 2m2, and
    is decorated by a tree that meets the boundary only at its root vertex.
    A full-size tree is glued as :func:`glue` glues it.
    """
    walk = _simple_walk(bmap, "partial gluing needs a simple boundary")
    m2 = tree.edge_count
    if m2 == 0:
        raise EmptyTree("cannot glue a tree without edges")
    if 2 * m2 > len(walk):
        raise TreeTooLarge(
            f"tree contour 2*{m2} exceeds perimeter {len(walk)}")
    frame = _frame(bmap.map, walk[:2 * m2])
    root = (frame.index[walk[2 * m2]] if 2 * m2 < len(walk)
            else frame.ends[0])
    return _decorated(frame, _contour_match(tree), root)


def glue_forest(mmap: MultiBoundaryMap, forest) -> ForestDecoratedMap:
    """Glue one tree into each labelled boundary of a multi-boundary map."""
    forest = list(forest)
    pmap = mmap.map
    if not forest:
        raise SizeMismatch("a forest needs at least one tree")
    if len(forest) != len(mmap.roots):
        raise SizeMismatch("one tree per boundary required")
    # rerooting refuses a root outside 1..2E before any face is walked
    boundaries = [mmap.boundary(i) for i in range(len(forest))]
    vertex = _vertex_ids(pmap.sigma)
    walks = []
    seen_vertices: set[int] = set()
    for i, b in enumerate(boundaries):
        walk = _simple_walk(b, f"boundary {i + 1} is not simple")
        if len(walk) != 2 * forest[i].edge_count:
            raise SizeMismatch(
                f"boundary {i + 1}: perimeter {len(walk)} != "
                f"2*{forest[i].edge_count}")
        verts = {vertex[d] for d in walk}
        if verts & seen_vertices:
            raise BoundariesNotDisjoint(
                f"boundary {i + 1} shares a vertex with an earlier boundary")
        seen_vertices |= verts
        walks.append(walk)
    consumed: list[int] = []
    matching: list[int] = []
    for walk, tree in zip(walks, forest):
        matching.extend(len(consumed) + j for j in _contour_match(tree))
        consumed.extend(walk)
    frame = _frame(pmap, consumed)
    sigma, alpha = _sew(frame, matching)
    ends = frame.ends
    glued = PlanarMap(tuple(sigma), tuple(alpha), ends[0], frame.labels)
    trees = []
    roots = []
    start = 0
    for walk in walks:
        part = ends[start:start + len(walk)]
        trees.append(frozenset([d for d in part if d < alpha[d - 1]]))
        roots.append(part[0])
        start += len(walk)
    return ForestDecoratedMap(glued, tuple(trees), tuple(roots))


def decorated_to_line(tdm: TreeDecoratedMap) -> str:
    return map_to_line(tdm.map) + " tree=" + ",".join(
        str(e) for e in sorted(tdm.tree_edges))


def decorated_from_line(line: str) -> TreeDecoratedMap:
    pmap, f = _map_record(line, ("tree",))
    edges = frozenset(_ints(f["tree"]))
    check_tree_decoration(pmap, edges)
    return TreeDecoratedMap(pmap, edges)

