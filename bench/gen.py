"""Seeded inputs for the ``large`` and ``bubbles`` workloads.

Every input is built from a ``random.Random`` seeded by the caller, through
public mapglue calls only (``sample_dyck_uniform``, ``contour_to_tree``,
``build_map``, ``unglue``, ``PlanarMap.rerooted``) plus rotation-system
arithmetic done here.  Each builder checks its own output before it is
handed to a timed loop, and raises ``GeneratorError`` when a check fails.
The expected sphere count of a bridgeless gluing is computed here from the
contour alone, independently of ``mapglue.bubbles``.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from mapglue.bijection import MultiBoundaryMap, TreeDecoratedMap, unglue
from mapglue.maps import BoundaryMap, PlanarMap, build_map
from mapglue.trees import DyckPath, contour_to_tree, sample_dyck_uniform

from spans import Tracer

LARGE_SIZES = (150, 300, 600)
JOIN_COUNTS = (2, 3, 4, 8, 16)
BUBBLE_TREE_EDGES = 400


class GeneratorError(Exception):
    """A generated input does not have the properties it was built for."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise GeneratorError(what)


def _pred(sigma: list[int], d: int) -> int:
    """The dart before ``d`` in the rotation at its vertex."""
    e = d
    while sigma[e - 1] != d:
        e = sigma[e - 1]
    return e


def _face(sigma: list[int], alpha: list[int], d: int) -> list[int]:
    cyc = [d]
    e = sigma[alpha[d - 1] - 1]
    while e != d:
        cyc.append(e)
        e = sigma[alpha[e - 1] - 1]
    return cyc


def random_decorated(m: int, rng: Random, tr: Tracer):
    """A uniform m-edge plane tree plus m chords, each joining two corners
    of one random face, decorated by the tree and rooted on it.

    Returns ``(decorated map, contour of the tree)``.  Tree darts keep the
    labels 1..2m that ``contour_to_tree`` gives them, so the map root
    (dart 1) is the first contour step.
    """
    path = tr.call("trees.sample_dyck_uniform", sample_dyck_uniform, m, rng)
    tree = tr.call("trees.contour_to_tree", contour_to_tree, path)
    sigma = list(tree.sigma)
    alpha = list(tree.alpha)
    for _ in range(m):
        n = len(sigma)
        d1 = rng.randrange(1, n + 1)
        face = _face(sigma, alpha, d1)
        d2 = face[rng.randrange(len(face))] if len(face) > 1 else d1
        if d2 == d1 and len(face) > 1:
            d2 = face[1]
        p1, p2 = _pred(sigma, d1), _pred(sigma, d2)
        x, y = n + 1, n + 2
        sigma += [d1, d2]
        alpha += [y, x]
        sigma[p1 - 1] = x
        sigma[p2 - 1] = y
    pmap = tr.call("maps.build_map", build_map, sigma, alpha, 1)
    edges = frozenset(d for d in range(1, 2 * m + 1) if d < alpha[d - 1])
    _require(len(edges) == m and pmap.edge_count == 2 * m,
             "decorated map has the wrong size")
    _require(pmap.vertex_count == m + 1, "chords added vertices")
    return TreeDecoratedMap(pmap, edges), path


# -- large --------------------------------------------------------------------

@dataclass
class LargeCase:
    m: int
    decorated: TreeDecoratedMap
    path: DyckPath
    boundary: BoundaryMap          # the unglued boundary of ``decorated``
    boundary_code: object          # its canonical code
    small_tree: PlanarMap          # uniform tree glued by glue_partial
    multi: MultiBoundaryMap        # two vertex-disjoint boundaries
    forest: tuple[PlanarMap, PlanarMap]
    forest_code: object            # canonical code glue_forest must give


def _fringe_windows(path: DyckPath) -> list[tuple[int, int]]:
    """Contour windows [a, b] of each edge plus the subtree below it:
    step a goes up, step b - 1 is its matching down step."""
    out = []
    stack: list[int] = []
    for i, s in enumerate(path.steps):
        if s == 1:
            stack.append(i)
        else:
            out.append((stack.pop(), i + 1))
    return out


def _window_vertices(pmap: PlanarMap, a: int, b: int) -> set[int]:
    return {pmap.vertex_of(d) for d in range(a + 1, b + 1)}


def _forest_input(dec: TreeDecoratedMap, path: DyckPath, tr: Tracer):
    """Unglue two vertex-disjoint subtrees of the decoration in turn.

    The subtrees are the fringe windows closest to a quarter of the tree,
    the second one vertex-disjoint from the first.
    """
    pmap = dec.map
    m = path.m
    windows = sorted(_fringe_windows(path),
                     key=lambda w: (abs((w[1] - w[0]) // 2 - m // 4), w[0]))
    a1, b1 = windows[0]
    v1 = _window_vertices(pmap, a1, b1)
    second = next((w for w in windows[1:]
                   if not _window_vertices(pmap, *w) & v1), None)
    _require(second is not None, "no vertex-disjoint second subtree")
    a2, b2 = second

    def edges_of(a, b):
        return frozenset(pmap.edge_of(d) for d in range(a + 1, b + 1))

    tree1, bd1 = tr.call("bijection.unglue", unglue, TreeDecoratedMap(
        tr.call("maps.rerooted", pmap.rerooted, a1 + 1), edges_of(a1, b1)))
    tree2, bd2 = tr.call("bijection.unglue", unglue, TreeDecoratedMap(
        tr.call("maps.rerooted", bd1.map.rerooted, a2 + 1), edges_of(a2, b2)))
    multi = MultiBoundaryMap(bd2.map, (bd1.map.root, bd2.map.root))
    _require(multi.boundary(0).perimeter == b1 - a1
             and multi.boundary(1).perimeter == b2 - a2,
             "forest boundaries have the wrong perimeters")
    expected = tr.call("maps.canonical_code",
                       pmap.rerooted(a1 + 1).canonical_code, tag="input")
    return multi, (tree1, tree2), expected


def large_cases(seed: int, tr: Tracer) -> list[LargeCase]:
    cases = []
    for m in LARGE_SIZES:
        rng = Random(f"{seed}:large:{m}")
        dec, path = random_decorated(m, rng, tr)
        tree, bmap = tr.call("bijection.unglue", unglue, dec)
        _require(bmap.is_simple() and bmap.perimeter == 2 * m,
                 "unglued boundary is not simple of perimeter 2m")
        small_path = tr.call("trees.sample_dyck_uniform",
                             sample_dyck_uniform, m // 3, rng)
        small = tr.call("trees.contour_to_tree", contour_to_tree, small_path)
        multi, forest, forest_code = _forest_input(dec, path, tr)
        cases.append(LargeCase(
            m, dec, path, bmap,
            tr.call("maps.canonical_code", bmap.map.canonical_code,
                    tag="input"),
            small, multi, forest, forest_code))
    return cases


# -- bubbles ------------------------------------------------------------------

def head_vertices(bmap: BoundaryMap) -> list[int]:
    """Vertex at each contour position: the head of the boundary dart with
    that label."""
    pmap = bmap.map
    return [pmap.vertex_of(pmap.alpha_of(d)) for d in bmap.boundary_walk()]


def expected_spheres(heads: list[int], path: DyckPath) -> int:
    """Spheres of the bridgeless gluing of a boundary with these head
    vertices along ``path``: one, plus one for every extra occurrence of a
    boundary vertex inside a contour class it already occupies.

    Positions i < j are one contour class when C(i) = C(j) = min C on
    [i, j]; equivalently, when they share their height and the last
    earlier position that is strictly lower.
    """
    heights = path.heights()
    lower: list[int] = []
    keys = set()
    for p, v in enumerate(heads):
        h = heights[p]
        while lower and heights[lower[-1]] >= h:
            lower.pop()
        keys.add((v, h, lower[-1] if lower else -1))
        lower.append(p)
    return 1 + len(heads) - len(keys)


@dataclass
class BubbleCase:
    name: str
    boundary: BoundaryMap
    boundary_code: object
    path: DyckPath
    tree: PlanarMap
    spheres: int          # expected sphere count


def _join_at_roots(pieces: list[PlanarMap], tr: Tracer) -> PlanarMap:
    """One map from several, their root vertices identified: every later
    piece's rotation is spliced into the corner before the first root, so
    the root faces merge into one face that passes the join vertex once
    per piece."""
    sigma: list[int] = []
    alpha: list[int] = []
    roots = []
    for p in pieces:
        off = len(sigma)
        sigma += [off + s for s in p.sigma]
        alpha += [off + a for a in p.alpha]
        roots.append(off + p.root)
    r0 = roots[0]
    before = _pred(sigma, r0)
    for r in roots[1:]:
        last = _pred(sigma, r)
        sigma[before - 1] = r
        sigma[last - 1] = r0
        before = last
    return tr.call("maps.build_map", build_map, sigma, alpha, r0)


def _pinching_contour(heads: list[int], rng: Random, tr: Tracer) -> DyckPath:
    """U, one uniform Dyck path per gap between consecutive occurrences of
    the join vertex (the last one edge shorter), then D: every occurrence
    of the join vertex then sits at height 1, in one contour class."""
    join = heads[1]
    occ = [p for p, v in enumerate(heads) if v == join]
    gaps = [b - a for a, b in zip(occ, occ[1:])]
    gaps.append(len(heads) - occ[-1] + occ[0])
    gaps[-1] -= 2
    steps = [1]
    for g in gaps:
        _require(g % 2 == 0 and g >= 0, "odd gap between join occurrences")
        if g:
            steps += tr.call("trees.sample_dyck_uniform", sample_dyck_uniform,
                             g // 2, rng).steps
    steps.append(-1)
    return DyckPath(tuple(steps))


def joined_disc_cases(seed: int, tr: Tracer) -> list[BubbleCase]:
    """k unglued random maps joined at their root vertices, glued with a
    contour that pinches at the join vertex (k spheres) and with a uniform
    contour (one sphere)."""
    cases = []
    for k in JOIN_COUNTS:
        rng = Random(f"{seed}:bubbles:{k}")
        sizes = [BUBBLE_TREE_EDGES // k + (i < BUBBLE_TREE_EDGES % k)
                 for i in range(k)]
        pieces = []
        for mi in sizes:
            dec, _ = random_decorated(mi, rng, tr)
            pieces.append(tr.call("bijection.unglue", unglue, dec)[1].map)
        bmap = BoundaryMap(_join_at_roots(pieces, tr))
        heads = head_vertices(bmap)
        _require(bmap.is_bridgeless() and not bmap.is_simple(),
                 "joined boundary must be bridgeless and not simple")
        _require(heads.count(heads[1]) == k
                 and bmap.perimeter == 2 * sum(sizes),
                 "join vertex does not recur once per piece")
        code = tr.call("maps.canonical_code", bmap.map.canonical_code,
                       tag="input")
        pinch = _pinching_contour(heads, rng, tr)
        uniform = tr.call("trees.sample_dyck_uniform", sample_dyck_uniform,
                          sum(sizes), rng)
        for _ in range(20):
            if expected_spheres(heads, uniform) == 1:
                break
            uniform = tr.call("trees.sample_dyck_uniform",
                              sample_dyck_uniform, sum(sizes), rng)
        for label, path, want in (("pinch", pinch, k),
                                  ("uniform", uniform, 1)):
            _require(expected_spheres(heads, path) == want,
                     f"k={k} {label}: contour gives the wrong sphere count")
            tree = tr.call("trees.contour_to_tree", contour_to_tree, path)
            _require(tree.edge_count == sum(sizes), "tree has the wrong size")
            cases.append(BubbleCase(f"k{k}-{label}", bmap, code, path, tree,
                                    want))
    return cases
