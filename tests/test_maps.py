import pytest

from mapglue.errors import (Disconnected, FormatError, NonPlanar,
                            NotInvolution)
from mapglue.enumeration import enumerate_maps
from mapglue.maps import (BoundaryMap, _connected_vertex_count, build_map,
                          map_from_line, map_to_line)

from relabelling import canonical_relabelling, relabel

EDGE = build_map([1, 2], [2, 1], 1)
LOOP = build_map([2, 1], [2, 1], 1)
# a triangle: vertices {1,2}, {3,4}, {5,6}; darts 1->2 pairs (1,4), (3,6), (5,2)
TRIANGLE = build_map([2, 1, 4, 3, 6, 5], [4, 5, 6, 1, 2, 3], 1)


def test_euler_counts():
    assert (EDGE.vertex_count, EDGE.edge_count, EDGE.face_count) == (2, 1, 1)
    assert (LOOP.vertex_count, LOOP.edge_count, LOOP.face_count) == (1, 1, 2)
    assert (TRIANGLE.vertex_count, TRIANGLE.edge_count,
            TRIANGLE.face_count) == (3, 3, 2)


def test_phi_is_face_permutation():
    for pmap in (EDGE, LOOP, TRIANGLE):
        darts = set(pmap.darts())
        assert {pmap.sigma[pmap.alpha[d - 1] - 1] for d in darts} == darts
        assert sum(len(f) for f in pmap.faces()) == pmap.dart_count


def test_accessors():
    assert TRIANGLE.alpha_of(1) == 4
    assert TRIANGLE.edge_of(1) == TRIANGLE.edge_of(4)
    assert TRIANGLE.vertex_of(1) == TRIANGLE.vertex_of(2)
    assert [len(v) for v in TRIANGLE.vertices()] == [2, 2, 2]
    assert len(TRIANGLE.root_face()) in (3,)


def test_build_map_rejects_bad_alpha():
    with pytest.raises(NotInvolution):
        build_map([1, 2], [1, 2], 1)  # fixed points
    with pytest.raises(NotInvolution):
        build_map([1, 2, 3, 4], [2, 1, 4, 4], 1)


def test_build_map_rejects_disconnected():
    with pytest.raises(Disconnected):
        build_map([1, 2, 3, 4], [2, 1, 4, 3], 1)


def test_build_map_rejects_torus():
    with pytest.raises(NonPlanar):
        build_map([2, 3, 4, 1], [3, 4, 1, 2], 1)


# one vertex, two edges, one face: V - E + F = 0
TORUS = ([2, 3, 4, 1], [3, 4, 1, 2])


def _disjoint(*pieces):
    """The rotation arrays of the disjoint union of ``pieces``."""
    sigma, alpha = [], []
    for s, a in pieces:
        n = len(sigma)
        sigma += [n + x for x in s]
        alpha += [n + x for x in a]
    return sigma, alpha


_BAD_MAPS = [
    # (sigma, alpha, root, labels): every later fault is shadowed
    (([], [], 1, ()), NotInvolution, "equal even number"),
    (([1], [1], 1, ()), NotInvolution, "equal even number"),
    (([1, 2, 3], [2, 1, 3], 7, ()), NotInvolution, "equal even number"),
    (([1, 2], [2, 1, 4, 3], 1, ()), NotInvolution, "equal even number"),
    (([1, 1], [2, 1], 9, ()), NotInvolution, "not a permutation"),
    (([1, 3], [1, 1], 1, ()), NotInvolution, "not a permutation"),
    (([1, 2], [1, 2], 1, ()), NotInvolution, "involution"),
    (([1, 2, 3, 4], [2, 1, 4, 4], 1, ()), NotInvolution, "involution"),
    (([1, 2], [2, 3], 1, ()), NotInvolution, "involution"),
    (([1, 2, 3, 4], [2, 3, 4, 1], 0, ()), NotInvolution, "involution"),
    (([1, 2], [2, 1], 0, ()), FormatError, "root"),
    (([1, 2], [2, 1], 3, ((9, "x"),)), FormatError, "root"),
    (([1, 2, 3, 4], [2, 1, 4, 3], 5, ()), FormatError, "root"),
    (([1, 2], [2, 1], 1, ((3, "a"),)), FormatError, "labels"),
    (([1, 2], [2, 1], 1, ((0, "a"),)), FormatError, "labels"),
    (([1, 2], [2, 1], 1, ((1, "a"), (1, "b"))), FormatError, "labels"),
    (([1, 2, 3, 4], [2, 1, 4, 3], 1, ((5, "a"),)), FormatError, "labels"),
    (([1, 2, 3, 4], [2, 1, 4, 3], 1, ()), Disconnected, "connected"),
    ((*_disjoint(TORUS, TORUS), 1, ()), Disconnected, "connected"),
    ((*_disjoint(([1, 2], [2, 1]), TORUS), 1, ()), Disconnected,
     "connected"),
    ((*_disjoint(TORUS, ([1, 2], [2, 1])), 5, ()), Disconnected,
     "connected"),
    ((*TORUS, 1, ()), NonPlanar, "V - E [+] F = 0, not 2"),
]


@pytest.mark.parametrize("args, error, message", _BAD_MAPS)
def test_build_map_checks_in_order(args, error, message):
    """Each kind of bad input raises its class, and the first failing
    check wins: dart counts, sigma, alpha, root, labels, connectivity,
    Euler."""
    with pytest.raises(error, match=message):
        build_map(*args)


def test_build_map_vertex_search_counts_every_vertex():
    for e in range(1, 6):
        for pmap in enumerate_maps(e).maps():
            assert (_connected_vertex_count(pmap.sigma, pmap.alpha)
                    == len(pmap.vertices()) == pmap.vertex_count)
    assert _connected_vertex_count(*_disjoint(TORUS, TORUS)) is None
    assert _connected_vertex_count(*TORUS) == 1


def test_rerooted_refuses_darts_outside_the_map():
    for root in (0, -1, 7):
        with pytest.raises(FormatError):
            TRIANGLE.rerooted(root)
    assert TRIANGLE.rerooted(6).root_face()[0] == 6


def test_simple_walk_matches_the_boundary_reads():
    """One walk gives what boundary_walk, boundary_vertices,
    is_vertex_simple and is_bridgeless give, from every root of every map
    with at most 4 edges."""
    simple = 0
    for e in range(1, 5):
        for pmap in enumerate_maps(e).maps():
            for d in pmap.darts():
                b = BoundaryMap(pmap.rerooted(d))
                found = b.simple_walk()
                assert b.is_simple() == (found is not None) == (
                    b.is_vertex_simple() and b.is_bridgeless())
                if found is not None:
                    simple += 1
                    assert found == (list(b.boundary_walk()),
                                     b.boundary_vertices())
    assert simple > 500


def test_canonical_code_is_relabelling_invariant():
    image = {1: 3, 2: 5, 3: 1, 4: 6, 5: 2, 6: 4}
    other = relabel(TRIANGLE, image)
    assert other.root == 3
    assert other.canonical_code() == TRIANGLE.canonical_code()
    assert (relabel(other, canonical_relabelling(other))
            == relabel(TRIANGLE, canonical_relabelling(TRIANGLE)))


def test_rerooting_changes_code():
    # the triangle is dart-transitive: every rooting is equivalent
    codes = {TRIANGLE.rerooted(d).canonical_code() for d in TRIANGLE.darts()}
    assert len(codes) == 1
    # a two-edge path is not: middle and end rootings differ
    path = build_map([1, 3, 2, 4], [2, 1, 4, 3], 1)
    assert len({path.rerooted(d).canonical_code()
                for d in path.darts()}) == 2


def test_map_line_round_trip():
    for pmap in (EDGE, LOOP, TRIANGLE):
        again = map_from_line(map_to_line(pmap))
        assert again == pmap


def test_map_line_errors():
    with pytest.raises(FormatError):
        map_from_line("not a map")
    with pytest.raises(FormatError):
        map_from_line("map E=2 root=1 sigma=1,2 alpha=2,1")
    with pytest.raises(FormatError):
        map_from_line("map E=1 root=1 sigma=1,2 alphas")
    with pytest.raises(FormatError):
        map_from_line("map E=1 root=1 sigma=1,2 alpha=2,1 sigma=2,1")
    with pytest.raises(FormatError):
        map_from_line("map E=1 root=1 sigma=1,2 alpha=2,1 colour=red")
    # labels must sit on distinct darts of the map
    for labels in ("99:a", "-1:x", "0:x", "1:a,1:b", "3:a"):
        with pytest.raises(FormatError):
            map_from_line(f"map E=1 root=1 sigma=1,2 alpha=2,1 labels={labels}")


def test_boundary_simplicity():
    b_edge = BoundaryMap(EDGE)
    assert b_edge.perimeter == 2
    assert b_edge.is_vertex_simple() and not b_edge.is_bridgeless()
    assert not b_edge.is_simple()
    b_loop = BoundaryMap(LOOP)
    assert b_loop.perimeter == 1
    assert b_loop.is_simple()
    b_tri = BoundaryMap(TRIANGLE)
    assert b_tri.perimeter == 3 and b_tri.is_simple()
    assert b_tri.map.face_count - 1 == 1


def test_boundary_walk_starts_at_root():
    walk = BoundaryMap(TRIANGLE).boundary_walk()
    assert walk[0] == TRIANGLE.root
    assert len(walk) == 3


def test_labels_do_not_affect_equality():
    labelled = build_map([1, 2], [2, 1], 1, labels=((1, "a"),))
    assert labelled == EDGE
    assert dict(labelled.labels)[1] == "a"


def _reference_relabelling(pmap, root):
    """The breadth-first relabelling written out with a dict, as an
    independent reference."""
    image = {root: 1}
    queue = [root]
    for d in queue:
        for e in (pmap.sigma[d - 1], pmap.alpha[d - 1]):
            if e not in image:
                image[e] = len(image) + 1
                queue.append(e)
    return image


def test_canonical_kernel_matches_reference_relabelling():
    from mapglue.enumeration import enumerate_maps
    labelled = build_map([2, 1, 4, 3, 6, 5], [4, 5, 6, 1, 2, 3], 1,
                         labels=((1, "a"), (4, "b"), (6, "c")))
    pool = [labelled] + [pm for e in range(1, 5)
                         for pm in enumerate_maps(e).maps()]
    for pmap in pool:
        for d in pmap.darts():
            rerooted = pmap.rerooted(d)
            ref = _reference_relabelling(pmap, d)
            image = canonical_relabelling(rerooted)
            assert [image[x] for x in pmap.darts()] == [ref[x] for x in
                                                         pmap.darts()]
            want = relabel(rerooted, ref)
            form = relabel(rerooted, image)
            assert form == want and form.labels == want.labels
            assert rerooted.canonical_code().code == want.sigma + want.alpha
