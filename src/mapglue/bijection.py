"""Gluing and ungluing of tree decorations.

Ungluing cuts a map open along a distinguished tree submap: every tree edge
is doubled and the new darts form a fresh external face whose walk is the
contour of the tree.  Gluing reverses this: the external face of a map with
a simple boundary of perimeter 2m is sewn shut along the vertex equivalence
induced by the contour of an m-edge tree.

Ungluing reads the tree's contour in place, walking the tree darts of the
map from its root (the same walk checks that the decoration is a tree),
and returns the tree rebuilt from that contour by
:func:`~mapglue.trees.contour_to_tree`: dart ``i + 1`` of the tree is
contour step ``i``, and trees of at most six edges are built once and
shared.  Gluing takes one walk of each boundary, which decides simplicity
and size and gives the darts to sew.

Both directions run through one kernel each, on flat arrays.  The cutting
kernel :func:`_cut` doubles every dart of a closed walk (a tree contour, or
a bubble-map circuit) and lets the new darts form one face running against
the walk; every other face is carried over unchanged.  The sewing kernel
:func:`_sew` deletes a set of boundary darts and pairs their alpha-partners
along a contour matching; each surviving dart's face successor is the next
surviving dart along its old face, skipping deleted ones, so whatever is
left of a partly consumed boundary stays one face.  Both rebuild the
rotation system as ``sigma = phi o alpha``, and the round trip is exact on
dart ids (up to the final canonical relabelling of the glued map).

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

from .errors import (
    BoundariesNotDisjoint,
    BoundaryNotSimple,
    DecorationNotATree,
    EmptyTree,
    FormatError,
    NotDyck,
    RootNotOnTree,
    SizeMismatch,
    TreeTooLarge,
)
from .maps import (BoundaryMap, PlanarMap, _edge_ends, _ints, _is_tree,
                   _map_record, map_to_line)
from .trees import _MEMO_EDGES, DyckPath, class_starts, contour_to_tree


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


def check_tree_decoration(pmap: PlanarMap, tree_edges) -> set[int]:
    """Raise DecorationNotATree unless the edges form a tree submap, and
    return the tree's vertices, each named by its smallest dart."""
    tree_edges = set(tree_edges)
    n = pmap.dart_count
    if not all(1 <= e <= n and e < pmap.alpha_of(e) for e in tree_edges):
        raise DecorationNotATree("unknown edge ids in decoration")
    verts = _is_tree(_edge_ends(pmap, tree_edges))
    if verts is None:
        raise DecorationNotATree("edge set is not a tree")
    return verts


def _tree_contour(pmap: PlanarMap, tree_edges) -> tuple[list[int],
                                                     DyckPath]:
    """The contour of the tree ``tree_edges`` read in place in ``pmap``,
    whose root must be a tree dart: its darts in contour order from the
    root, and its Dyck path (the first step along an edge goes up).

    The dart after ``d`` is the first tree dart counterclockwise from
    ``alpha(d)``, which is the face walk of the plane tree that restricting
    the rotation of ``pmap`` to the tree darts gives.  The walk also checks
    the decoration: DecorationNotATree unless every id names an edge and
    the walk takes all 2|S| darts of the edges S.  The restricted rotation
    is planar, so a face that holds every dart makes it a tree; on any
    other edge set the walk returns to the root early.
    """
    sigma, alpha = pmap.sigma, pmap.alpha
    n = len(sigma)
    # 1: a tree dart whose edge the walk has not taken yet, 2: taken
    state = [0] * (n + 1)
    for e in tree_edges:
        if not (1 <= e <= n and e < alpha[e - 1]):
            raise DecorationNotATree("unknown edge ids in decoration")
        state[e] = state[alpha[e - 1]] = 1
    root = pmap.root
    darts = []
    steps = []
    d = root
    while True:
        darts.append(d)
        a = alpha[d - 1]
        if state[d] == 1:
            steps.append(1)
            state[d] = state[a] = 2
        else:
            steps.append(-1)
        d = sigma[a - 1]
        while not state[d]:
            d = sigma[d - 1]
        if d == root:
            break
    # before the path is made: a cycle's walk is no Dyck path
    if len(darts) != 2 * len(tree_edges):
        raise DecorationNotATree("edge set is not a tree")
    return darts, DyckPath(tuple(steps))


def _contour_matching(tree: PlanarMap) -> tuple[int, ...]:
    """match[i] = j when contour steps i and j traverse the same edge.
    Raises NotDyck unless ``tree`` is a plane tree: its root face must
    take every dart.  The matching of a tree with at most ``_MEMO_EDGES``
    edges is computed once and shared, together with its contour classes
    (:func:`_contour_tables`); a larger tree is never kept."""
    if tree.dart_count <= 2 * _MEMO_EDGES:
        return _memo_matching(tree)[0]
    return _matching(tree)


def _contour_tables(tree: PlanarMap):
    """``(match, classes)``: :func:`_contour_matching` of ``tree``, and
    :func:`~mapglue.trees.class_starts` of its contour; shared alike."""
    if tree.dart_count <= 2 * _MEMO_EDGES:
        return _memo_matching(tree)
    return _matching_and_classes(tree)


def _matching(tree: PlanarMap) -> tuple[int, ...]:
    walk = tree.root_face()
    if len(walk) != tree.dart_count:
        raise NotDyck("map is not a plane tree (more than one face)")
    pos = [0] * (len(walk) + 1)
    for i, d in enumerate(walk):
        pos[d] = i
    alpha = tree.alpha
    return tuple([pos[alpha[d - 1]] for d in walk])


def _matching_and_classes(tree: PlanarMap):
    match = _matching(tree)
    # step i goes up exactly when match[i] > i
    path = DyckPath(tuple([1 if j > i else -1 for i, j in enumerate(match)]))
    return match, tuple(class_starts(path))


# the same room as trees._memo_tree; a raise is never cached
_memo_matching = lru_cache(maxsize=256)(_matching_and_classes)


def _cut(phi: list[int], alpha: list[int], walk):
    """Cut a map open along the closed walk ``walk``.

    ``phi`` and ``alpha`` are the face and edge permutations as flat image
    lists (dart d at index d - 1).  Every walk dart gets a new twin, labelled
    after the old darts in increasing order of the dart it doubles; the
    twins form one new face whose orbit runs against the walk (phi sends the
    twin of step i+1 to the twin of step i), which splits every vertex the
    walk passes into its corners.  Returns ``(sigma, alpha, root)`` with the
    twin of the first step as root.
    """
    n = len(phi)
    twin = {d: n + 1 + k for k, d in enumerate(sorted(walk))}
    phi = phi + [0] * len(walk)
    alpha = alpha + [0] * len(walk)
    for d, t in twin.items():
        alpha[d - 1] = t
        alpha[t - 1] = d
    for d, e in zip(walk, walk[1:] + walk[:1]):
        phi[twin[e] - 1] = twin[d]
    sigma = [phi[a - 1] for a in alpha]
    return sigma, alpha, twin[walk[0]]


def unglue(tdm: TreeDecoratedMap):
    """Cut a tree-decorated map open along its tree.

    Returns ``(tree, bmap)`` with ``tree`` the decoration as a standalone
    plane tree, built from its contour read from the map root (dart
    ``i + 1`` is contour step ``i``; trees of at most six edges are shared,
    see :func:`~mapglue.trees.contour_to_tree`), and ``bmap`` a map with a
    simple boundary of perimeter twice the tree size, whose internal faces
    are the faces of the input in degree-preserving correspondence.
    """
    pmap = tdm.map
    if not tdm.root_on_tree:
        # a decoration that is no tree is refused as such first
        check_tree_decoration(pmap, tdm.tree_edges)
        raise RootNotOnTree("map root edge must belong to the decoration")
    contour, path = _tree_contour(pmap, tdm.tree_edges)
    sigma, alpha = pmap.sigma, pmap.alpha
    phi = [sigma[a - 1] for a in alpha]
    sigma, alpha, root = _cut(phi, list(alpha), contour)
    return (contour_to_tree(path), BoundaryMap(
        PlanarMap(tuple(sigma), tuple(alpha), root, pmap.labels)))


def _sew(pmap: PlanarMap, consumed: list[int], matching: Sequence[int]):
    """Delete the ``consumed`` darts and pair the alpha-partners of
    ``consumed[i]`` and ``consumed[matching[i]]``.

    Surviving darts keep their order and are relabelled 1..n; each one's
    face successor is the next surviving dart along its old face, so a face
    that loses some darts keeps the rest as one cycle.  Returns
    ``(sigma, alpha, index)`` where ``index[d]`` is the new label of dart
    ``d`` (0 for a consumed dart).
    """
    old_sigma, old_alpha = pmap.sigma, pmap.alpha
    dead = set(consumed)
    survivors = [d for d in pmap.darts() if d not in dead]
    index = [0] * (pmap.dart_count + 1)
    for k, d in enumerate(survivors, 1):
        index[d] = k
    phi = []
    alpha = []
    for d in survivors:
        e = old_sigma[old_alpha[d - 1] - 1]
        while not index[e]:
            e = old_sigma[old_alpha[e - 1] - 1]
        phi.append(index[e])
        alpha.append(index[old_alpha[d - 1]])
    for i, j in enumerate(matching):
        alpha[index[old_alpha[consumed[i] - 1]] - 1] = \
            index[old_alpha[consumed[j] - 1]]
    sigma = [phi[a - 1] for a in alpha]
    return sigma, alpha, index


def _sewn_map(pmap: PlanarMap, sigma, alpha, index, root: int):
    """The map :func:`_sew` produced, rooted at the image of ``root`` and
    keeping the labels of surviving darts (survivors keep their order, so
    the labels stay sorted)."""
    labels = tuple((index[d], v) for d, v in pmap.labels if index[d])
    return PlanarMap(tuple(sigma), tuple(alpha), index[root], labels)


def _simple_walk(bmap: BoundaryMap, what: str) -> tuple[list[int],
                                                         list[int]]:
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
    walk, _ = _simple_walk(bmap, "gluing needs a simple boundary")
    m = tree.edge_count
    if m == 0:
        raise EmptyTree("cannot glue a tree without edges")
    if len(walk) != 2 * m:
        raise SizeMismatch(f"perimeter {len(walk)} != 2*{m} tree edges")
    return _glue_prefix(bmap.map, walk, tree)


def glue_partial(bmap: BoundaryMap, tree: PlanarMap) -> TreeDecoratedMap:
    """Glue a tree along the first part of a larger simple boundary.

    The boundary edges labelled 0..2m2-1 are consumed; the result keeps a
    simple external face of perimeter 2m1 rooted at the former edge 2m2, and
    is decorated by a tree that meets the boundary only at its root vertex.
    A full-size tree is glued as :func:`glue` glues it.
    """
    walk, _ = _simple_walk(bmap, "partial gluing needs a simple boundary")
    m2 = tree.edge_count
    if m2 == 0:
        raise EmptyTree("cannot glue a tree without edges")
    if 2 * m2 > len(walk):
        raise TreeTooLarge(
            f"tree contour 2*{m2} exceeds perimeter {len(walk)}")
    return _glue_prefix(bmap.map, walk, tree)


def _glue_prefix(pmap: PlanarMap, walk: list[int],
                 tree: PlanarMap) -> TreeDecoratedMap:
    """Sew the first 2m darts of the boundary walk ``walk`` of ``pmap``
    shut along the contour of the m-edge ``tree``.  The result is rooted at
    the former boundary dart 2m when the walk is longer, and on the tree
    when the tree takes the whole boundary."""
    consumed = walk[: 2 * tree.edge_count]
    sigma, alpha, index = _sew(pmap, consumed, _contour_matching(tree))
    root = (walk[len(consumed)] if len(consumed) < len(walk)
            else pmap.alpha_of(walk[0]))
    glued = _sewn_map(pmap, sigma, alpha, index, root)
    tree_edges = frozenset(
        glued.edge_of(index[pmap.alpha_of(b)]) for b in consumed)
    return TreeDecoratedMap(glued, tree_edges)


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
    walks = []
    seen_vertices: set[int] = set()
    for i, b in enumerate(boundaries):
        walk, verts = _simple_walk(b, f"boundary {i + 1} is not simple")
        if len(walk) != 2 * forest[i].edge_count:
            raise SizeMismatch(
                f"boundary {i + 1}: perimeter {len(walk)} != "
                f"2*{forest[i].edge_count}")
        verts = set(verts)
        if verts & seen_vertices:
            raise BoundariesNotDisjoint(
                f"boundary {i + 1} shares a vertex with an earlier boundary")
        seen_vertices |= verts
        walks.append(walk)
    consumed: list[int] = []
    matching: list[int] = []
    for walk, tree in zip(walks, forest):
        matching.extend(len(consumed) + j for j in _contour_matching(tree))
        consumed.extend(walk)
    sigma, alpha, index = _sew(pmap, consumed, matching)
    glued = _sewn_map(pmap, sigma, alpha, index, pmap.alpha_of(consumed[0]))
    trees = []
    roots = []
    for walk in walks:
        trees.append(frozenset(
            glued.edge_of(index[pmap.alpha_of(b)]) for b in walk))
        roots.append(index[pmap.alpha_of(walk[0])])
    return ForestDecoratedMap(glued, tuple(trees), tuple(roots))


def decorated_to_line(tdm: TreeDecoratedMap) -> str:
    return map_to_line(tdm.map) + " tree=" + ",".join(
        str(e) for e in sorted(tdm.tree_edges))


def decorated_from_line(line: str) -> TreeDecoratedMap:
    pmap, f = _map_record(line, ("tree",))
    edges = frozenset(_ints(f["tree"]))
    check_tree_decoration(pmap, edges)
    return TreeDecoratedMap(pmap, edges)


def forest_to_line(fdm: ForestDecoratedMap) -> str:
    groups = []
    for root, edges in zip(fdm.tree_roots, fdm.trees):
        groups.append(f"{root}:" + ",".join(str(e) for e in sorted(edges)))
    return map_to_line(fdm.map) + " trees=" + ";".join(groups)


def forest_from_line(line: str) -> ForestDecoratedMap:
    pmap, f = _map_record(line, ("trees",))
    trees = []
    roots = []
    for group in f["trees"].split(";"):
        root, colon, edges = group.partition(":")
        if not colon:
            raise FormatError(f"a tree needs root:edges: {group!r}")
        roots.extend(_ints(root, count=1))
        trees.append(frozenset(_ints(edges)))
    seen: set[int] = set()
    for root, edges in zip(roots, trees):
        verts = check_tree_decoration(pmap, edges)
        if verts & seen:
            raise DecorationNotATree("trees share a vertex")
        seen |= verts
        if not (1 <= root <= pmap.dart_count and pmap.edge_of(root) in edges):
            raise FormatError(f"root {root} is not a dart of its tree")
    return ForestDecoratedMap(pmap, tuple(trees), tuple(roots))
