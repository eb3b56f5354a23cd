import sys
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapglue.bijection import (ForestDecoratedMap, MultiBoundaryMap,
                               TreeDecoratedMap, _tree_contour,
                               check_tree_decoration, decorated_from_line,
                               decorated_to_line, glue, glue_forest,
                               glue_partial, unglue)
from mapglue.bubbles import detect_wicked, glue_bridgeless, unglue_bubble
from mapglue.enumeration import (_subtrees, enumerate_boundary_maps,
                                 enumerate_maps, tree_submaps)
from mapglue.errors import (BoundariesNotDisjoint, BoundaryNotSimple,
                            DecorationNotATree, EmptyTree, FormatError,
                            NotDyck, RootNotOnTree, SizeMismatch,
                            TreeTooLarge)
from mapglue.maps import BoundaryMap, build_map
from mapglue.trees import (DyckPath, _contour_walk, _memo_tree, catalan,
                           contour_to_tree, enumerate_trees,
                           sample_dyck_uniform, tree_to_contour)

from relabelling import canonical_relabelling

EDGE = build_map([1, 2], [2, 1], 1)


def _decorations(pmap):
    root_edge = pmap.edge_of(pmap.root)
    for m in range(1, pmap.vertex_count):
        for sub in tree_submaps(pmap, m, root_edge):
            yield TreeDecoratedMap(pmap, sub)


def _assert_valid(pmap):
    """Run ``pmap`` through build_map's full checks: a map that a kernel
    builds directly must pass them and come back equal, labels included
    (equality compares the sigma and alpha tuples, not lists)."""
    again = build_map(pmap.sigma, pmap.alpha, pmap.root, pmap.labels)
    assert again == pmap and again.labels == pmap.labels


def test_unglue_edge_map():
    tree, bmap = unglue(TreeDecoratedMap(EDGE, frozenset({1})))
    assert tree.edge_count == 1
    assert bmap.perimeter == 2
    assert bmap.is_simple()
    assert bmap.map.edge_count == 2


def test_round_trip_exact_small():
    for e in range(1, 5):
        for pmap in enumerate_maps(e).maps():
            for tdm in _decorations(pmap):
                tree, bmap = unglue(tdm)
                assert bmap.is_simple()
                assert bmap.perimeter == 2 * tree.edge_count
                back = glue(bmap, tree)
                # exact on dart ids, not just up to isomorphism
                assert back.map == tdm.map
                assert back.tree_edges == tdm.tree_edges


def test_unglue_seeds_the_walk_a_fresh_boundary_map_computes():
    """On every decorated map with at most 4 edges, the boundary map that
    unglue returns already holds its simple walk, the one its cut laid
    out, and it is the walk that a fresh BoundaryMap of the same map
    computes.  The map cannot be replaced under the kept walk."""
    for e in range(1, 5):
        for pmap in enumerate_maps(e).maps():
            for tdm in _decorations(pmap):
                _, bmap = unglue(tdm)
                seeded = bmap._walk
                fresh = BoundaryMap(bmap.map)
                assert seeded == fresh.simple_walk() == fresh.boundary_walk()
                assert bmap.simple_walk() is seeded
                with pytest.raises(AttributeError):
                    bmap.map = pmap


def test_round_trip_pairs_small():
    for m in (1, 2):
        for e in range(m, 5):
            cat = enumerate_boundary_maps(e=e, perimeter=2 * m, simple=True)
            for pm in cat.maps():
                for path in enumerate_trees(m):
                    tdm = glue(BoundaryMap(pm), contour_to_tree(path))
                    tree2, bmap2 = unglue(tdm)
                    assert tree_to_contour(tree2) == path
                    assert bmap2.map.canonical_code() == pm.canonical_code()


def test_glue_counts_match_product():
    # gluing is injective: distinct pairs give distinct decorated maps
    for q, f, m in ((4, 1, 1), (3, 2, 1), (4, 2, 2)):
        cat = enumerate_boundary_maps(q=q, f=f, perimeter=2 * m, simple=True)
        seen = set()
        for pm in cat.maps():
            for path in enumerate_trees(m):
                tdm = glue(BoundaryMap(pm), contour_to_tree(path))
                image = canonical_relabelling(tdm.map)
                canon_tree = frozenset(
                    min(image[e], image[tdm.map.alpha_of(e)])
                    for e in tdm.tree_edges)
                seen.add((tdm.map.canonical_code(), canon_tree))
        assert len(seen) == catalan(m) * len(cat)


def test_glue_error_paths():
    tree1 = contour_to_tree(DyckPath.from_word("UD"))
    tree2 = contour_to_tree(DyckPath.from_word("UUDD"))
    bare = BoundaryMap(EDGE)  # bridge boundary, not simple
    with pytest.raises(BoundaryNotSimple):
        glue(bare, tree1)
    loop = BoundaryMap(build_map([2, 1], [2, 1], 1))
    with pytest.raises(SizeMismatch):
        glue(loop, tree1)
    quad = enumerate_boundary_maps(q=4, f=1, perimeter=4, simple=True).maps()[0]
    with pytest.raises(SizeMismatch):
        glue(BoundaryMap(quad), tree1)
    class EdgelessTree:
        # a tree with no edges has no map encoding; a stub is enough to
        # reach the emptiness check
        edge_count = 0

    with pytest.raises(EmptyTree):
        glue(BoundaryMap(quad), EdgelessTree())
    with pytest.raises(TreeTooLarge):
        glue_partial(BoundaryMap(quad), contour_to_tree(
            DyckPath.from_word("UUUDDD")))
    assert tree2.edge_count == 2


def test_check_tree_decoration_errors():
    tri = build_map([2, 1, 4, 3, 6, 5], [4, 5, 6, 1, 2, 3], 1)
    with pytest.raises(DecorationNotATree):
        check_tree_decoration(tri, set())
    with pytest.raises(DecorationNotATree):
        check_tree_decoration(tri, set(tri.edges()))  # the full 3-cycle
    with pytest.raises(DecorationNotATree):
        check_tree_decoration(tri, {99})
    check_tree_decoration(tri, set(list(tri.edges())[:2]))


def _dfs_tree_vertices(pmap, edges) -> set | None:
    """Reference tree test: the vertices of a nonempty edge set whose ends
    span one more vertex than there are edges, all reached by a
    depth-first search; None for any other edge set."""
    if not edges:
        return None
    adj = {}
    for e in edges:
        u, w = pmap.vertex_of(e), pmap.vertex_of(pmap.alpha_of(e))
        adj.setdefault(u, []).append(w)
        adj.setdefault(w, []).append(u)
    seen = {next(iter(adj))}
    stack = list(seen)
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen if len(seen) == len(adj) == len(edges) + 1 else None


def test_tree_kernel_matches_dfs_on_every_edge_subset():
    """The mask kernel (_subtrees), check_tree_decoration and tree_submaps
    against the reference on every edge subset of every map with at most
    4 edges: the trees are the subsets the reference accepts, in
    combination order, each with the mask of the reference's vertices."""
    for e in range(1, 5):
        for pmap in enumerate_maps(e).maps():
            edges = pmap.edges()
            for m in range(len(edges) + 1):
                masks = {}
                for combo in combinations(edges, m):
                    verts = _dfs_tree_vertices(pmap, combo)
                    if verts is not None:
                        masks[frozenset(combo)] = sum(1 << v for v in verts)
                        assert check_tree_decoration(pmap, combo) is None
                    else:
                        with pytest.raises(DecorationNotATree):
                            check_tree_decoration(pmap, combo)
                assert list(_subtrees(pmap, m)) == list(masks.items())
                if m:
                    assert tree_submaps(pmap, m) == list(masks)


def _restricted_tree(pmap, tree_edges):
    """Reference: the plane tree whose rotation is the rotation of ``pmap``
    restricted to the tree darts, rooted at the map root, and the map from
    its darts (numbered in increasing ambient order) back to ``pmap``."""
    darts = sorted(d for d in pmap.darts() if pmap.edge_of(d) in tree_edges)
    index = {d: i + 1 for i, d in enumerate(darts)}
    sigma = [0] * len(darts)
    alpha = [0] * len(darts)
    for d in darts:
        e = pmap.sigma[d - 1]
        while pmap.edge_of(e) not in tree_edges:
            e = pmap.sigma[e - 1]
        sigma[index[d] - 1] = index[e]
        alpha[index[d] - 1] = index[pmap.alpha_of(d)]
    return build_map(sigma, alpha, index[pmap.root]), darts


def test_tree_contour_matches_rotation_restriction():
    """The contour read in place from any tree dart equals the contour of
    the restricted rotation rooted there, dart for dart, on every
    decoration with at most 5 edges; unglue returns the tree of the
    contour from the root."""
    for e in range(1, 6):
        for pmap in enumerate_maps(e).maps():
            for tdm in _decorations(pmap):
                ref, to_ambient = _restricted_tree(pmap, tdm.tree_edges)
                assert ref.face_count == 1
                darts, steps = _tree_contour(pmap, tdm.tree_edges)
                path = DyckPath(tuple(steps))
                assert darts == [to_ambient[d - 1] for d in ref.root_face()]
                assert path == tree_to_contour(ref)
                tree, _ = unglue(tdm)
                assert tree == contour_to_tree(path)
                for i, start in enumerate(to_ambient, 1):
                    rerooted = ref.rerooted(i)
                    darts, steps = _contour_walk(pmap, tdm.tree_edges, start)
                    assert darts == [to_ambient[d - 1]
                                     for d in rerooted.root_face()]
                    assert DyckPath(tuple(steps)) == tree_to_contour(rerooted)


def test_glue_partial_properties():
    m1, m2 = 1, 1
    cat = enumerate_boundary_maps(q=4, f=2, perimeter=2 * (m1 + m2),
                                  simple=True)
    tree = contour_to_tree(DyckPath.from_word("UD"))
    seen = set()
    for pm in cat.maps():
        tdm = glue_partial(BoundaryMap(pm), tree)
        out = BoundaryMap(tdm.map)
        assert out.perimeter == 2 * m1
        assert out.is_simple()
        # the tree hangs at a single boundary vertex
        tree_verts = {tdm.map.vertex_of(d) for d in tdm.map.darts()
                      if tdm.map.edge_of(d) in tdm.tree_edges}
        assert len(tree_verts & {tdm.map.vertex_of(d)
                                 for d in out.simple_walk()}) == 1
        image = canonical_relabelling(tdm.map)
        canon_tree = frozenset(min(image[e], image[tdm.map.alpha_of(e)])
                               for e in tdm.tree_edges)
        seen.add((tdm.map.canonical_code(), canon_tree))
    assert len(seen) == catalan(m2) * len(cat)


def test_glue_partial_full_tree_delegates():
    cat = enumerate_boundary_maps(q=4, f=1, perimeter=2, simple=True)
    tree = contour_to_tree(DyckPath.from_word("UD"))
    for pm in cat.maps():
        a = glue(BoundaryMap(pm), tree)
        b = glue_partial(BoundaryMap(pm), tree)
        assert a == b


def test_glue_forest_two_boundaries():
    # dumbbell host: two double edges joined by a bridge; the two digon
    # faces are vertex-disjoint simple boundaries of perimeter 2
    host = build_map([3, 4, 1, 5, 2, 9, 6, 10, 7, 8],
                     [2, 1, 4, 3, 6, 5, 8, 7, 10, 9], 1)
    mmap = MultiBoundaryMap(host, (1, 7))
    tree = contour_to_tree(DyckPath.from_word("UD"))
    fdm = glue_forest(mmap, (tree, tree))
    assert isinstance(fdm, ForestDecoratedMap)
    _assert_valid(fdm.map)
    assert len(fdm.trees) == 2
    for edges in fdm.trees:
        check_tree_decoration(fdm.map, edges)


def test_glue_forest_boundaries_must_be_vertex_disjoint():
    # bowtie host: two double edges sharing their middle vertex; the two
    # digon faces are simple boundaries of perimeter 2 with a common vertex
    host = build_map([2, 1, 4, 5, 6, 3, 8, 7], [3, 4, 1, 2, 7, 8, 5, 6], 1)
    tree = contour_to_tree(DyckPath.from_word("UD"))
    for roots in ((1, 6), (1, 1)):
        with pytest.raises(BoundariesNotDisjoint):
            glue_forest(MultiBoundaryMap(host, roots), (tree, tree))


def test_glue_forest_refuses_bad_input_before_walking():
    """An empty forest and a root outside 1..2E are refused before any
    face walk (a root of 0 would walk its face forever)."""
    host = build_map([3, 4, 1, 5, 2, 9, 6, 10, 7, 8],
                     [2, 1, 4, 3, 6, 5, 8, 7, 10, 9], 1)
    tree = contour_to_tree(DyckPath.from_word("UD"))
    with pytest.raises(SizeMismatch):
        glue_forest(MultiBoundaryMap(host, ()), ())
    for roots in ((0,), (11,), (1, 0), (1, -3)):
        with pytest.raises(FormatError):
            glue_forest(MultiBoundaryMap(host, roots), [tree] * len(roots))


def test_bad_boundary_roots_are_refused():
    """A boundary root outside 1..2E is refused when the boundary is
    taken, instead of walking its face forever (0) or failing on an
    index (2E + 1)."""
    host = build_map([3, 4, 1, 5, 2, 9, 6, 10, 7, 8],
                     [2, 1, 4, 3, 6, 5, 8, 7, 10, 9], 1)
    for root in (0, -1, 11):
        with pytest.raises(FormatError):
            MultiBoundaryMap(host, (root,)).boundary(0)
        with pytest.raises(FormatError):
            BoundaryMap(host.rerooted(root))
    assert MultiBoundaryMap(host, (7,)).boundary(0).perimeter == 2


def _count_builds(monkeypatch) -> list:
    """Count every build_map call made through a mapglue module."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return build_map(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("mapglue") and hasattr(module, "build_map"):
            monkeypatch.setattr(module, "build_map", counting)
    return calls


def test_unglue_and_glue_build_no_map(monkeypatch):
    """unglue, glue and glue_partial build every map they return directly,
    with no build_map call, on every decoration with at most 4 edges, each
    dart of the map labelled; each map passes build_map's checks
    unchanged.  glue_partial glues every tree smaller than the cut
    boundary's."""
    cases = [tdm for e in range(1, 5) for pm in enumerate_maps(e).maps()
             for tdm in _decorations(build_map(
                 pm.sigma, pm.alpha, pm.root,
                 [(d, f"d{d}") for d in pm.darts()]))]
    smaller = [contour_to_tree(path) for k in range(1, 4)
               for path in enumerate_trees(k)]
    _memo_tree.cache_clear()  # so unglue also builds trees cold
    calls = _count_builds(monkeypatch)
    for tdm in cases:
        tree, bmap = unglue(tdm)
        back = glue(bmap, tree)
        parts = [glue_partial(bmap, small) for small in smaller
                 if small.edge_count < tree.edge_count]
        assert calls == []
        for pmap in (tree, bmap.map, back.map, *(p.map for p in parts)):
            _assert_valid(pmap)
        assert back.map == tdm.map and back.map.labels == tdm.map.labels


def test_non_simple_boundary_is_reported_before_its_size():
    """A boundary that is not simple raises BoundaryNotSimple whatever the
    tree's size, in glue, glue_partial and glue_forest."""
    figure_eight = next(  # bridgeless, but passes a vertex twice
        pm for pm in enumerate_maps(2).maps()
        if BoundaryMap(pm).is_bridgeless()
        and not BoundaryMap(pm).is_vertex_simple())
    trees = [contour_to_tree(DyckPath.from_word(w))
             for w in ("UD", "UUDD", "UUUDDD")]

    class EdgelessTree:
        edge_count = 0

    for pmap in (EDGE, figure_eight):
        for tree in trees + [EdgelessTree()]:
            with pytest.raises(BoundaryNotSimple):
                glue(BoundaryMap(pmap), tree)
            with pytest.raises(BoundaryNotSimple):
                glue_partial(BoundaryMap(pmap), tree)
            with pytest.raises(BoundaryNotSimple):
                glue_forest(MultiBoundaryMap(pmap, (pmap.root,)), [tree])


def test_gluing_refuses_a_tree_that_is_no_plane_tree():
    """Every gluing entry point refuses a 2-edge map with two faces as the
    tree (NotDyck, from the contour matching) instead of failing on a
    lookup of a dart its root face misses."""
    not_trees = [pm for pm in enumerate_maps(2).maps() if pm.face_count == 2]
    assert len(not_trees) == 5
    square = enumerate_boundary_maps(q=4, f=1, perimeter=4,
                                     simple=True).maps()[0]
    bmap = BoundaryMap(square)
    for pm in not_trees:
        for entry in (glue, glue_partial, glue_bridgeless, detect_wicked):
            with pytest.raises(NotDyck):
                entry(bmap, pm)
        with pytest.raises(NotDyck):
            glue_forest(MultiBoundaryMap(square, (square.root,)), [pm])


def test_contour_matching_shared_for_small_trees_only():
    from mapglue import bijection
    bijection._memo_tables.cache_clear()
    small = contour_to_tree(DyckPath((1, 1, -1, 1, -1, -1)))
    tables = bijection._contour_tables(small)
    assert tables == ((5, 2, 1, 4, 3, 0), (0, 1, 2, 1, 4, 1, 0))
    assert bijection._contour_tables(small) is tables
    # a 7-edge tree is matched afresh and never kept
    large = contour_to_tree(DyckPath((1, -1) * 7))
    assert bijection._contour_tables(large)[0] == tuple(
        i + 1 if i % 2 == 0 else i - 1 for i in range(14))
    # a small map that is no tree raises on every call
    loop = build_map([2, 1], [2, 1], 1)
    for _ in range(2):
        with pytest.raises(NotDyck):
            bijection._contour_tables(loop)
    assert bijection._memo_tables.cache_info().currsize == 1


def test_unglue_root_not_on_tree():
    triangle = build_map([2, 1, 4, 3, 6, 5], [4, 5, 6, 1, 2, 3], 1)
    with pytest.raises(RootNotOnTree):
        unglue(TreeDecoratedMap(triangle, frozenset({2})))
    # the contour reader that tree_marginal_test uses refuses it too
    # instead of walking the tree forever in search of the root
    with pytest.raises(RootNotOnTree):
        _tree_contour(triangle, frozenset({2}))


def test_unglue_refuses_decorations_that_are_no_tree():
    """unglue checks its decoration with its own contour walk, which
    returns to the root before it has taken every decoration dart; the
    walk of a cycle is no Dyck path, so it is refused as no tree, not as
    NotDyck."""
    triangle = build_map([2, 1, 4, 3, 6, 5], [4, 5, 6, 1, 2, 3], 1)
    loop = build_map([2, 1], [2, 1], 1)
    path3 = contour_to_tree(DyckPath.from_word("UUUDDD"))
    for pmap, edges in ((triangle, {1, 2, 3}), (loop, {1}),
                        (path3, {1, 3}), (path3, {1, 2, 99}),
                        (triangle, {4})):
        with pytest.raises(DecorationNotATree):
            unglue(TreeDecoratedMap(pmap, frozenset(edges)))


def test_decorated_line_round_trip():
    tdm = TreeDecoratedMap(EDGE, frozenset({1}))
    again = decorated_from_line(decorated_to_line(tdm))
    assert again == tdm
    with pytest.raises(FormatError):
        decorated_from_line("map E=1 root=1 sigma=1,2 alpha=2,1")
    with pytest.raises(FormatError):
        decorated_from_line("map E=1 root=1 sigma=1,2 alpha=2,1 tree=a")
    with pytest.raises(FormatError):
        decorated_from_line(
            "map E=1 root=1 sigma=1,2 alpha=2,1 tree=5 tree=1")


@pytest.mark.parametrize("size", [500, 2000])
def test_round_trips_beyond_exhaustive_caps(size):
    rng = Random(f"beyond-caps-{size}")
    host = contour_to_tree(sample_dyck_uniform(size, rng))
    # the edges met by a prefix of the contour form a subtree on the root
    # edge; cutting it open leaves the rest of the tree hanging inside
    prefix = host.root_face()[:size]
    tdm = TreeDecoratedMap(host, frozenset(host.edge_of(d) for d in prefix))
    tree, bmap = unglue(tdm)
    m = tree.edge_count
    back = glue(bmap, tree)
    assert back.map == tdm.map
    assert back.tree_edges == tdm.tree_edges

    path = sample_dyck_uniform(m, rng)
    glued = glue(bmap, contour_to_tree(path))
    tree2, bmap2 = unglue(glued)
    assert tree_to_contour(tree2) == path
    assert bmap2.map.canonical_code() == bmap.map.canonical_code()

    small = contour_to_tree(sample_dyck_uniform(m // 3, rng))
    part = glue_partial(bmap, small)
    for pmap in (host, tree, bmap.map, back.map, glued.map, tree2,
                 bmap2.map, small, part.map):
        _assert_valid(pmap)
    check_tree_decoration(part.map, part.tree_edges)
    assert len(part.tree_edges) == m // 3
    assert len(part.map.root_face()) == 2 * (m - m // 3)

    bubble, circuit = glue_bridgeless(bmap, contour_to_tree(path))
    assert len(bubble.spheres) == 1
    tree3, bmap3 = unglue_bubble(bubble, circuit)
    assert tree_to_contour(tree3) == path
    assert bmap3.map.canonical_code() == bmap.map.canonical_code()


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(size=st.integers(50, 2000), seed=st.integers(0, 2 ** 32),
       data=st.data())
def test_round_trips_at_size(size, seed, data):
    """glue after unglue, unglue after glue and glue_partial on random
    decorated maps of 50 to 2000 edges: a random plane tree decorated by
    the edges that a prefix of its contour meets, a subtree on the root
    edge.  Every map the kernels return passes build_map's checks."""
    rng = Random(seed)
    host = contour_to_tree(sample_dyck_uniform(size, rng))
    prefix = host.root_face()[:data.draw(st.integers(1, 2 * size))]
    tdm = TreeDecoratedMap(host, frozenset(host.edge_of(d) for d in prefix))
    tree, bmap = unglue(tdm)
    m = tree.edge_count
    back = glue(bmap, tree)
    assert back.map == tdm.map and back.tree_edges == tdm.tree_edges

    path = sample_dyck_uniform(m, rng)
    glued = glue(bmap, contour_to_tree(path))
    tree2, bmap2 = unglue(glued)
    assert tree_to_contour(tree2) == path
    assert bmap2.map.canonical_code() == bmap.map.canonical_code()

    k = data.draw(st.integers(1, m))
    part = glue_partial(bmap, contour_to_tree(sample_dyck_uniform(k, rng)))
    check_tree_decoration(part.map, part.tree_edges)
    assert len(part.tree_edges) == k
    if k < m:  # a full-size tree is glued as glue glues it
        assert len(part.map.root_face()) == 2 * (m - k)
    for pmap in (tree, bmap.map, back.map, glued.map, tree2, bmap2.map,
                 part.map):
        _assert_valid(pmap)
