from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mapglue.bijection import glue
from mapglue.bubbles import (BubbleMap, Circuit, _nested, _wicked_cuts,
                             bubble_canonical_key, bubble_from_text,
                             bubble_rerooted, bubble_to_text,
                             circuit_to_contour, detect_wicked,
                             glue_bridgeless, unglue_bubble)
from mapglue.counting import count_bubble
from mapglue.enumeration import enumerate_maps
from mapglue.errors import (BoundaryHasBridge, CircuitMissesPinch,
                            Disconnected, FormatError, InternalMismatch,
                            MalformedCircuit)
from mapglue.maps import BoundaryMap, build_map, map_from_line
from mapglue.trees import (DyckPath, contour_classes, contour_to_tree,
                           enumerate_trees, sample_dyck_uniform,
                           tree_to_contour)

# two loops at one vertex, rooted so the external face has degree 2
FIGURE_EIGHT = build_map([2, 3, 4, 1], [2, 1, 4, 3], 1)


def _bridgeless_inputs(max_edges):
    for e in range(1, max_edges + 1):
        for pm in enumerate_maps(e).maps():
            bm = BoundaryMap(pm)
            if bm.perimeter % 2 or not bm.is_bridgeless():
                continue
            for path in enumerate_trees(bm.perimeter // 2):
                yield pm, bm, path


def test_figure_eight_plus_ud():
    bm = BoundaryMap(FIGURE_EIGHT)
    assert bm.perimeter == 2 and bm.is_bridgeless() and not bm.is_simple()
    assert detect_wicked(bm, contour_to_tree(DyckPath.from_word("UD"))) == []
    bubble, circuit = glue_bridgeless(bm, contour_to_tree(
        DyckPath.from_word("UD")))
    assert len(bubble.spheres) == 1
    loop = bubble.spheres[0]
    assert loop.edge_count == 1 and loop.vertex_count == 1
    # the circuit walks the loop in both directions
    assert sorted(circuit.darts) == sorted(loop.darts())
    circuit.validate()
    assert circuit.is_non_crossing()


def test_simple_boundary_agrees_with_glue():
    for pm, bm, path in _bridgeless_inputs(3):
        if not bm.is_simple():
            continue
        tree = contour_to_tree(path)
        bubble, circuit = glue_bridgeless(bm, tree)
        tdm = glue(bm, tree)
        assert len(bubble.spheres) == 1
        assert bubble.spheres[0].canonical_code() == tdm.map.canonical_code()


def test_exhaustive_round_trip():
    smallest_wicked = None
    for pm, bm, path in _bridgeless_inputs(4):
        tree = contour_to_tree(path)
        bubble, circuit = glue_bridgeless(bm, tree)
        circuit.validate()
        assert len(circuit.darts) == bm.perimeter
        assert circuit.is_non_crossing()
        wicked = detect_wicked(bm, tree)
        assert (len(bubble.spheres) == 1) == (not wicked)
        if len(bubble.spheres) > 1 and smallest_wicked is None:
            smallest_wicked = pm.edge_count
        assert circuit_to_contour(circuit) == path
        tree2, bm2 = unglue_bubble(bubble, circuit)
        assert tree_to_contour(tree2) == path
        assert bm2.map.canonical_code() == pm.canonical_code()
    # the first pinched gluing needs four boundary edges
    assert smallest_wicked == 4


def test_wicked_instance_structure():
    for pm, bm, path in _bridgeless_inputs(4):
        tree = contour_to_tree(path)
        bubble, _ = glue_bridgeless(bm, tree)
        if len(bubble.spheres) == 1:
            continue
        # the pinch incidences form a tree over the spheres
        assert len(bubble.pinches) == len(bubble.spheres) - 1
        assert detect_wicked(bm, tree)


def test_outputs_in_bijection_with_inputs():
    # Distinct (boundary map, tree) pairs give distinct decorated bubbles.
    for m in (1, 2):
        for e in (2 * m, 2 * m + 1):
            if e > 5:
                continue
            pairs = 0
            keys = set()
            for pm in enumerate_maps(e).maps():
                bm = BoundaryMap(pm)
                if bm.perimeter != 2 * m or not bm.is_bridgeless():
                    continue
                for path in enumerate_trees(m):
                    bubble, circuit = glue_bridgeless(
                        bm, contour_to_tree(path))
                    keys.add(bubble_canonical_key(bubble, circuit))
                    pairs += 1
            assert len(keys) == pairs


def test_rooted_anywhere_cardinality():
    # rerooting the decorated bubbles at every dart and counting distinct
    # results reproduces the closed formula
    for e, m in ((0, 1), (1, 1), (0, 2)):
        keys = set()
        for pm in enumerate_maps(e + 2 * m).maps():
            bm = BoundaryMap(pm)
            if bm.perimeter != 2 * m or not bm.is_bridgeless():
                continue
            for path in enumerate_trees(m):
                bubble, circuit = glue_bridgeless(bm, contour_to_tree(path))
                for g in bubble.darts():
                    nb, mapping = bubble_rerooted(bubble, g)
                    nc = Circuit(nb, tuple(mapping[d] for d in circuit.darts))
                    keys.add(bubble_canonical_key(nb, nc, cyclic=True))
        assert len(keys) == count_bubble(e, m), (e, m)


def test_bridged_boundary_refused():
    bridge = BoundaryMap(build_map([1, 2], [2, 1], 1))
    tree = contour_to_tree(DyckPath.from_word("UD"))
    with pytest.raises(BoundaryHasBridge):
        glue_bridgeless(bridge, tree)
    with pytest.raises(BoundaryHasBridge):
        detect_wicked(bridge, tree)


def test_malformed_circuits():
    bubble, circuit = glue_bridgeless(
        BoundaryMap(FIGURE_EIGHT), contour_to_tree(DyckPath.from_word("UD")))
    with pytest.raises(MalformedCircuit):
        Circuit(bubble, circuit.darts[:1]).validate()  # odd length
    with pytest.raises(MalformedCircuit):
        Circuit(bubble, circuit.darts * 2).validate()  # edge visited 4 times
    with pytest.raises(MalformedCircuit):
        Circuit(bubble, (99, 100)).validate()
    # chain break: two darts whose head and tail vertices do not meet
    path2 = build_map([1, 3, 2, 4], [2, 1, 4, 3], 1)
    loop = build_map([2, 1], [2, 1], 1)
    two = BubbleMap((path2, loop), ((0, path2.vertex_of(1), 1, 1),))
    with pytest.raises(MalformedCircuit):
        Circuit(two, (1, 3)).validate()


def test_circuit_misses_pinch():
    path2 = build_map([1, 3, 2, 4], [2, 1, 4, 3], 1)  # A - B - C
    loop = build_map([2, 1], [2, 1], 1)
    far_end = path2.vertex_of(4)
    bubble = BubbleMap((path2, loop), ((0, far_end, 1, 1),))
    circuit = Circuit(bubble, (1, 2))  # walks edge A-B twice, never C
    circuit.validate()
    with pytest.raises(CircuitMissesPinch):
        unglue_bubble(bubble, circuit)


def test_root_edge_must_be_on_circuit():
    path2 = build_map([1, 3, 2, 4], [2, 1, 4, 3], 1)
    loop = build_map([2, 1], [2, 1], 1)
    far_end = path2.vertex_of(4)
    bubble = BubbleMap((path2, loop), ((0, far_end, 1, 1),))
    circuit = Circuit(bubble, (3, 4))  # covers the pinch, not the root edge
    circuit.validate()
    with pytest.raises(MalformedCircuit):
        unglue_bubble(bubble, circuit)


def test_serialization_round_trip():
    for pm, bm, path in _bridgeless_inputs(3):
        bubble, circuit = glue_bridgeless(bm, contour_to_tree(path))
        text = bubble_to_text(bubble, circuit)
        again, circ2 = bubble_from_text(text)
        assert again == bubble
        assert circ2.darts == circuit.darts


def test_serialization_errors():
    with pytest.raises(FormatError):
        bubble_from_text("not a bubble")
    with pytest.raises(FormatError):
        bubble_from_text("bubble spheres=2\nmap E=1 root=1 sigma=2,1 "
                         "alpha=2,1\n")


# -- one-pass kernels against the quadratic rules they replaced ---------------

def _crossing_pair(chords) -> bool:
    """Pairwise rule: two chords cross when their four endpoints are
    distinct and interleave."""
    for i in range(len(chords)):
        for j in range(i + 1, len(chords)):
            a, b = chords[i]
            c, d = chords[j]
            if len({a, b, c, d}) < 4:
                continue
            lo, hi = min(a, b), max(a, b)
            if (lo < c < hi) != (lo < d < hi):
                return True
    return False


def _pairwise_vertex(bub, g):
    k, d = bub.to_local(g)
    x = (k, bub.spheres[k].vertex_of(d))
    while x in bub._pinch_parent:
        x = bub._pinch_parent[x]
    return x


def _pairwise_non_crossing(circuit) -> bool:
    """Reference is_non_crossing: per vertex, rescan every vertex cycle for
    the rotation positions, then compare the corner chords pairwise."""
    bub = circuit.bubble
    chords = {}
    darts = circuit.darts
    for prev, g in zip(darts[-1:] + darts[:-1], darts):
        v = _pairwise_vertex(bub, g)
        chords.setdefault(v, []).append((bub.alpha_of(prev), g))
    for v, pairs in chords.items():
        order = {}
        offs = bub.offsets()
        for k, s in enumerate(bub.spheres):
            for cyc in s.vertices():
                if _pairwise_vertex(bub, cyc[0] + offs[k]) != v:
                    continue
                for d in cyc:
                    order[d + offs[k]] = len(order)
        if _crossing_pair([(order[a], order[b]) for a, b in pairs]):
            return False
    return True


def _scanned_groups(bmap, tree):
    """Reference position scan: (vertex, positions by contour class) pairs,
    one scan of all positions per distinct vertex."""
    walk = bmap.boundary_walk()
    bv = [bmap.map.vertex_of(bmap.map.alpha_of(d)) for d in walk]
    cls_of = [0] * len(walk)
    for c, cls in enumerate(contour_classes(tree_to_contour(tree))):
        for p in cls:
            if p < len(cls_of):
                cls_of[p] = c
    out = []
    for v in sorted(set(bv)):
        byclass = {}
        for p in [p for p in range(len(walk)) if bv[p] == v]:
            byclass.setdefault(cls_of[p], []).append(p)
        out.append((v, list(byclass.values())))
    return out


def _scanned_wicked(bmap, tree):
    out = []
    for v, classes in _scanned_groups(bmap, tree):
        hits = [p for ps in classes if len(ps) >= 2 for p in ps]
        if hits:
            out.append((v, tuple(sorted(hits))))
    return out


def _scanned_cuts(bmap, tree):
    cuts = [(a, b, v) for v, classes in _scanned_groups(bmap, tree)
            for ps in classes for a, b in zip(ps, ps[1:])]
    for a1, b1, _ in cuts:
        for a2, b2, _ in cuts:
            if a1 < a2 < b1 < b2:
                raise InternalMismatch("wicked cuts cross")
    return cuts


def _check_against_references(bm, tree):
    """Compare the one-pass kernels with the references on one gluing and
    return the gluing, or None when it raises Disconnected."""
    assert detect_wicked(bm, tree) == _scanned_wicked(bm, tree)
    assert _wicked_cuts(bm, tree) == _scanned_cuts(bm, tree)
    try:
        bubble, circuit = glue_bridgeless(bm, tree)
    except Disconnected:
        return None
    for g in bubble.darts():
        assert bubble.vertex_of(g) == _pairwise_vertex(bubble, g)
    assert circuit.is_non_crossing() == _pairwise_non_crossing(circuit)
    return bubble, circuit


def test_one_pass_kernels_match_references_exhaustively():
    glued = 0
    for pm, bm, path in _bridgeless_inputs(5):
        if _check_against_references(bm, contour_to_tree(path)):
            glued += 1
    assert glued > 0


# the two six-edge inputs of the benchmark's known defects (bench/README.md)
DISCONNECTED_E6 = ("map E=6 root=1 sigma=2,1,5,6,7,8,9,10,3,11,12,4 "
                   "alpha=3,4,1,2,7,9,5,10,6,8,12,11")
CROSSING_E6 = ("map E=6 root=1 sigma=2,1,5,3,6,7,8,9,10,4,12,11 "
               "alpha=3,4,1,2,6,5,8,7,11,12,9,10")


def test_known_six_edge_defects_pinned():
    bm = BoundaryMap(map_from_line(DISCONNECTED_E6))
    tree = contour_to_tree(DyckPath.from_word("UDUUDD"))
    assert detect_wicked(bm, tree) == []
    with pytest.raises(Disconnected):
        glue_bridgeless(bm, tree)

    bm = BoundaryMap(map_from_line(CROSSING_E6))
    path = DyckPath.from_word("UUUDDD")
    bubble, circuit = _check_against_references(bm, contour_to_tree(path))
    assert len(bubble.spheres) == 2
    assert circuit.is_non_crossing() is False
    # the round trip is exact all the same
    tree2, bm2 = unglue_bubble(bubble, circuit)
    assert tree_to_contour(tree2) == path
    assert bm2.map.canonical_code() == bm.map.canonical_code()


def test_two_wicked_vertices_in_vertex_order():
    bm = BoundaryMap(map_from_line(
        "map E=6 root=1 sigma=2,1,5,3,6,4,9,7,10,8,12,11 "
        "alpha=3,4,1,2,7,8,5,6,11,12,9,10"))
    tree = contour_to_tree(DyckPath.from_word("UDUUDD"))
    bubble, _ = _check_against_references(bm, tree)
    assert detect_wicked(bm, tree) == [(3, (0, 2)), (7, (3, 5))]
    assert [v for _, _, v in _wicked_cuts(bm, tree)] == [3, 7]
    assert len(bubble.spheres) == 3


def _rotation_pred(sigma, d):
    e = d
    while sigma[e - 1] != d:
        e = sigma[e - 1]
    return e


def _joined_disc(k, seed):
    """k simple-boundary 5-edge maps joined at their root vertices, and a
    tree whose contour puts every occurrence of the join vertex in one
    contour class, so the gluing pinches it into k spheres."""
    rng = Random(seed)
    pieces = [pm for pm in enumerate_maps(5).maps()
              if BoundaryMap(pm).is_simple()
              and BoundaryMap(pm).perimeter % 2 == 0]
    sigma, alpha, roots = [], [], []
    for pm in (rng.choice(pieces) for _ in range(k)):
        off = len(sigma)
        sigma += [off + x for x in pm.sigma]
        alpha += [off + a for a in pm.alpha]
        roots.append(off + pm.root)
    # splice each later rotation into the corner before the first root
    before = _rotation_pred(sigma, roots[0])
    for r in roots[1:]:
        last = _rotation_pred(sigma, r)
        sigma[before - 1], sigma[last - 1] = r, roots[0]
        before = last
    bm = BoundaryMap(build_map(sigma, alpha, roots[0]))
    heads = [bm.map.vertex_of(bm.map.alpha_of(d)) for d in bm.boundary_walk()]
    occ = [p for p, v in enumerate(heads) if v == heads[1]]
    gaps = [b - a for a, b in zip(occ, occ[1:])]
    gaps.append(len(heads) - occ[-1] + occ[0] - 2)
    steps = [1]
    for g in gaps:
        if g:
            steps += sample_dyck_uniform(g // 2, rng).steps
    steps.append(-1)
    return bm, DyckPath(tuple(steps))


def test_joined_discs_match_references():
    for seed in range(6):
        for k in (2, 3, 4):
            bm, path = _joined_disc(k, seed)
            bubble, circuit = _check_against_references(
                bm, contour_to_tree(path))
            assert len(bubble.spheres) == k


def test_joined_disc_verdicts_pinned():
    # seed 3 shows the known defect: the k = 3 round trip is exact, yet
    # is_non_crossing reports a crossing; k = 2 passes
    verdicts = {}
    for k in (2, 3):
        bm, path = _joined_disc(k, 3)
        bubble, circuit = glue_bridgeless(bm, contour_to_tree(path))
        tree2, bm2 = unglue_bubble(bubble, circuit)
        assert tree_to_contour(tree2) == path
        assert bm2.map.canonical_code() == bm.map.canonical_code()
        verdicts[k] = circuit.is_non_crossing()
    assert verdicts == {2: True, 3: False}


@settings(derandomize=True, database=None, max_examples=400)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                max_size=9))
@example([(0, 2), (1, 3)])                  # interleaved
@example([(0, 3), (1, 3), (1, 2)])          # shared endpoints, nested
@example([(0, 2), (0, 2), (1, 3)])          # duplicate chord, crossed
@example([(2, 2), (0, 4), (1, 3), (3, 1)])  # degenerate and reversed
@example([(0, 2), (2, 4), (1, 2)])          # touching at one position
def test_nested_matches_pairwise_rule(chords):
    assert _nested(chords) == (not _crossing_pair(chords))


def test_malformed_circuit_in_non_crossing():
    bubble, circuit = glue_bridgeless(
        BoundaryMap(FIGURE_EIGHT), contour_to_tree(DyckPath.from_word("UD")))
    with pytest.raises(FormatError):
        Circuit(bubble, (1, 99)).is_non_crossing()
    path2 = build_map([1, 3, 2, 4], [2, 1, 4, 3], 1)
    loop = build_map([2, 1], [2, 1], 1)
    two = BubbleMap((path2, loop), ((0, path2.vertex_of(1), 1, 1),))
    with pytest.raises(MalformedCircuit):
        Circuit(two, (1, 3)).is_non_crossing()
