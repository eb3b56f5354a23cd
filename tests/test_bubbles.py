from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mapglue.bijection import _contour_tables, glue
from mapglue import verify
from mapglue.bubbles import (BubbleMap, Circuit, _nested, _wicked_cuts,
                             bubble_from_text, bubble_to_text,
                             circuit_to_contour, detect_wicked,
                             glue_bridgeless, unglue_bubble)
from mapglue.counting import count_bubble
from mapglue.enumeration import enumerate_maps
from mapglue.errors import (BoundaryHasBridge, CircuitMissesPinch,
                            Disconnected, EmptyTree, FormatError,
                            InternalMismatch, MalformedCircuit, NonPlanar,
                            SizeMismatch)
from mapglue.maps import (BoundaryMap, _cycles, _find, _union, build_map,
                          map_from_line)
from mapglue.trees import (DyckPath, class_starts, contour_to_tree,
                           enumerate_trees, sample_dyck_uniform,
                           tree_to_contour)

from bubble_reference import branching_key, to_local

def _walk_contour(edges) -> DyckPath:
    """Reference contour of a closed walk given by the edge of each step:
    the first step along an edge goes up, every later one down."""
    seen: set[int] = set()
    steps = []
    for e in edges:
        steps.append(-1 if e in seen else 1)
        seen.add(e)
    return DyckPath(tuple(steps))


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
    keys = [branching_key(*glue_bridgeless(bm, contour_to_tree(path)))
            for _, bm, path in _bridgeless_inputs(5)]
    assert len(set(keys)) == len(keys) == 751


def test_bridged_boundary_refused():
    bridge = BoundaryMap(build_map([1, 2], [2, 1], 1))
    tree = contour_to_tree(DyckPath.from_word("UD"))
    with pytest.raises(BoundaryHasBridge):
        glue_bridgeless(bridge, tree)
    with pytest.raises(BoundaryHasBridge):
        detect_wicked(bridge, tree)


class EdgelessTree:
    # a tree with no edges has no map encoding; a stub is enough to reach
    # the emptiness check
    edge_count = 0


def test_gluing_checks_in_order():
    """A bridge is reported first, then (in glue_bridgeless only) an empty
    tree, then a size mismatch."""
    bridge = BoundaryMap(build_map([1, 2], [2, 1], 1))
    eight = BoundaryMap(FIGURE_EIGHT)
    too_big = contour_to_tree(DyckPath.from_word("UUDD"))
    for tree in (too_big, EdgelessTree()):
        with pytest.raises(BoundaryHasBridge):
            glue_bridgeless(bridge, tree)
        with pytest.raises(BoundaryHasBridge):
            detect_wicked(bridge, tree)
        with pytest.raises(SizeMismatch):
            detect_wicked(eight, tree)
    with pytest.raises(EmptyTree):
        glue_bridgeless(eight, EdgelessTree())
    with pytest.raises(SizeMismatch):
        glue_bridgeless(eight, too_big)


def _three_spheres():
    """The gluing of test_two_wicked_vertices_in_vertex_order."""
    bm = BoundaryMap(map_from_line(
        "map E=6 root=1 sigma=2,1,5,3,6,4,9,7,10,8,12,11 "
        "alpha=3,4,1,2,7,8,5,6,11,12,9,10"))
    return glue_bridgeless(bm, contour_to_tree(DyckPath.from_word("UDUUDD")))


def test_stray_darts_are_refused_before_any_table_lookup():
    """Darts 0, -1 and 2E + 1 would index the flat tables (0 and -1 wrap
    around a list); a circuit refuses them when it is made, so no circuit
    kernel ever sees them."""
    for bubble, circuit in (glue_bridgeless(
            BoundaryMap(FIGURE_EIGHT),
            contour_to_tree(DyckPath.from_word("UD"))), _three_spheres()):
        darts = circuit.darts
        for stray in (0, -1, bubble.dart_count + 1):
            for bad in ((stray,) + darts[1:], darts[:-1] + (stray,)):
                with pytest.raises(MalformedCircuit, match="out of range"):
                    Circuit(bubble, bad)


def test_malformed_circuits():
    bubble, circuit = glue_bridgeless(
        BoundaryMap(FIGURE_EIGHT), contour_to_tree(DyckPath.from_word("UD")))
    with pytest.raises(MalformedCircuit, match="positive even"):
        Circuit(bubble, circuit.darts[:1])  # odd length
    with pytest.raises(MalformedCircuit, match="positive even"):
        Circuit(bubble, ())
    with pytest.raises(MalformedCircuit, match="exactly twice"):
        Circuit(bubble, circuit.darts * 2)  # edge visited 4 times
    for darts in ((99, 100), (0, 1)):
        with pytest.raises(MalformedCircuit, match="out of range"):
            Circuit(bubble, darts)
    # chain break: two darts whose head and tail vertices do not meet
    path2 = build_map([1, 3, 2, 4], [2, 1, 4, 3], 1)
    loop = build_map([2, 1], [2, 1], 1)
    two = BubbleMap((path2, loop), ((0, path2.vertex_of(1), 1, 1),))
    with pytest.raises(MalformedCircuit, match="not the tail"):
        Circuit(two, (1, 3))


def test_circuit_takes_each_edge_once_in_each_direction():
    loop = BubbleMap((build_map([2, 1], [2, 1], 1),))
    assert circuit_to_contour(Circuit(loop, (1, 2))) == DyckPath((1, -1))
    for darts in ((1, 1), (2, 2), (1, 1, 2, 2), (1, 2, 1, 2)):
        with pytest.raises(MalformedCircuit, match="once in each direction"):
            Circuit(loop, darts)


def _closed_walks(pm):
    """Every closed walk on ``pm`` that starts along the root edge, whose
    darts chain head to tail and that takes each edge it uses exactly
    twice."""
    alpha = pm.alpha
    vid = [0] + [pm.vertex_of(d) for d in pm.darts()]
    out = []

    def extend(walk, uses):
        head = vid[alpha[walk[-1] - 1]]
        if head == vid[walk[0]] and all(c == 2 for c in uses.values()):
            out.append(tuple(walk))
        for g in pm.darts():
            e = pm.edge_of(g)
            if vid[g] == head and uses.get(e, 0) < 2:
                extend(walk + [g], {**uses, e: uses.get(e, 0) + 1})

    for g in (pm.root, alpha[pm.root - 1]):
        extend([g], {pm.edge_of(g): 1})
    return out


def test_circuits_refuse_repeated_darts_and_cut_into_valid_maps():
    """Over every closed walk along the root edge that takes its edges
    exactly twice on the maps with at most 3 edges, a circuit is made
    exactly when no dart repeats.  Cutting it open gives a map that
    passes build_map, or raises NonPlanar on a walk that crosses itself:
    the cut is always a rotation system, so nothing else is checked."""
    refused = cut = crossing = 0
    for e in (1, 2, 3):
        for pm in enumerate_maps(e).maps():
            bubble = BubbleMap((pm,))
            for walk in _closed_walks(pm):
                if len(set(walk)) < len(walk):
                    with pytest.raises(MalformedCircuit):
                        Circuit(bubble, walk)
                    refused += 1
                    continue
                circuit = Circuit(bubble, walk)
                try:
                    tree, bmap = unglue_bubble(bubble, circuit)
                except NonPlanar:
                    crossing += 1
                    continue
                m = bmap.map
                assert build_map(m.sigma, m.alpha, m.root) == m
                assert tree_to_contour(tree) == circuit_to_contour(circuit)
                cut += 1
    assert (refused, cut, crossing) == (11670, 2010, 824)


def test_circuit_misses_pinch():
    path2 = build_map([1, 3, 2, 4], [2, 1, 4, 3], 1)  # A - B - C
    loop = build_map([2, 1], [2, 1], 1)
    far_end = path2.vertex_of(4)
    bubble = BubbleMap((path2, loop), ((0, far_end, 1, 1),))
    circuit = Circuit(bubble, (1, 2))  # walks edge A-B twice, never C
    with pytest.raises(CircuitMissesPinch):
        unglue_bubble(bubble, circuit)


def test_circuits_of_another_bubble_map_are_refused():
    """A circuit is cut on the tables of its own bubble-map: one of another
    bubble-map, larger or of the same size, is refused before any table
    lookup, while an equal bubble-map built anew is accepted."""
    eight, eight_circuit = glue_bridgeless(
        BoundaryMap(FIGURE_EIGHT), contour_to_tree(DyckPath.from_word("UD")))
    glued = [glue_bridgeless(bm, contour_to_tree(path))
             for _, bm, path in _bridgeless_inputs(4)]
    larger = next(c for b, c in glued if b.dart_count > eight.dart_count)
    bubble, circuit = glued[-1]
    same_size = next(c for b, c in glued if b != bubble
                     and b.dart_count == bubble.dart_count)
    for host, foreign in ((eight, larger), (eight, circuit),
                          (bubble, same_size), (bubble, eight_circuit)):
        with pytest.raises(MalformedCircuit, match="another bubble-map"):
            unglue_bubble(host, foreign)
    twin = BubbleMap(bubble.spheres, bubble.pinches)
    assert twin is not bubble
    tree, bmap = unglue_bubble(bubble, circuit)
    tree2, bmap2 = unglue_bubble(twin, circuit)
    assert tree2 == tree and bmap2.map == bmap.map


def test_root_edge_must_be_on_circuit():
    path2 = build_map([1, 3, 2, 4], [2, 1, 4, 3], 1)
    loop = build_map([2, 1], [2, 1], 1)
    far_end = path2.vertex_of(4)
    bubble = BubbleMap((path2, loop), ((0, far_end, 1, 1),))
    circuit = Circuit(bubble, (3, 4))  # covers the pinch, not the root edge
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
    two = ("bubble spheres=2\nmap E=1 root=1 sigma=2,1 alpha=2,1\n"
           "map E=1 root=1 sigma=2,1 alpha=2,1\n")
    _, circuit = bubble_from_text(two + "pinch=1.1~2.1\ncircuit=1,2")
    assert circuit.darts == (1, 2)
    for tail in ("pinch=1.1~5.1",                 # no sphere 5
                 "pinch=1.9~2.1",                 # no dart 9
                 "pinch=1.2~2.1",                 # vertex named by dart 2
                 "pinch=1.1~2.1\npinch=1.1~2.1",
                 "pinch=1.1~1.1",                 # pinches sphere 1 to itself
                 "pinch=",                        # no pinch
                 "pinch=1.1~2.1,1.1~2.1",         # one pinch too many
                 "pinch=1.1~2.1\ncircuit=1,2\ncircuit=2,1"):
        with pytest.raises(FormatError):
            bubble_from_text(two + tail)


def test_pinches_must_form_a_tree():
    loop = build_map([2, 1], [2, 1], 1)
    for pinches in (((0, 1, 5, 1),),                  # no sphere 5
                    ((0, 1, -1, 1),),                 # no sphere -1
                    ((0, 1, 0, 1), (1, 1, 2, 1)),     # sphere 0 to itself
                    ((0, 1, 1, 1), (1, 1, 0, 1))):    # a cycle, no sphere 2
        with pytest.raises(InternalMismatch,
                           match="do not connect the spheres"):
            BubbleMap((loop,) * (len(pinches) + 1), pinches)
    BubbleMap((loop,) * 3, ((2, 1, 0, 1), (1, 1, 2, 1)))


def test_pinches_must_name_vertices():
    """A pinch names each vertex by its smallest local dart; a phantom
    vertex would pinch nothing, so the constructor refuses it."""
    path2 = build_map([1, 3, 2, 4], [2, 1, 4, 3], 1)  # vertices 1, 2, 4
    loop = build_map([2, 1], [2, 1], 1)
    for pinch in ((0, 99, 1, 1), (0, 3, 1, 1), (0, 0, 1, 1), (0, 1, 1, 2),
                  (0, 1, 1, -1)):
        with pytest.raises(FormatError, match="pinch names no vertex"):
            BubbleMap((path2, loop), (pinch,))
    for v in (1, 2, 4):
        BubbleMap((path2, loop), ((0, v, 1, 1),))


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
    """Reference pinch collapse: the smallest (sphere, vertex) copy that
    the pinches join to the tail of ``g``."""
    k, d = to_local(bub, g)
    copies = {(k, bub.spheres[k].vertex_of(d))}
    grown = True
    while grown:
        grown = False
        for a, va, b, vb in bub.pinches:
            if ((a, va) in copies) != ((b, vb) in copies):
                copies |= {(a, va), (b, vb)}
                grown = True
    return min(copies)


def _pairwise_non_crossing(circuit) -> bool:
    """Reference is_non_crossing: per vertex, rescan every vertex cycle for
    the rotation positions, then compare the corner chords pairwise."""
    bub = circuit.bubble
    alpha = bub._table[1]
    chords = {}
    darts = circuit.darts
    for prev, g in zip(darts[-1:] + darts[:-1], darts):
        v = _pairwise_vertex(bub, g)
        chords.setdefault(v, []).append((alpha[prev - 1], g))
    for v, pairs in chords.items():
        order = {}
        offs = bub._offsets
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
    # classes by first position
    cls_of = class_starts(tree_to_contour(tree).steps)
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


def _cuts(bmap, tree):
    """The wicked cuts that glue_bridgeless takes of one gluing."""
    return _wicked_cuts(bmap.map, bmap.boundary_walk(),
                        _contour_tables(tree)[1])


def _check_against_references(bm, tree):
    """Compare the one-pass kernels with the references on one gluing and
    return the gluing, or None when it raises Disconnected.

    The kernels build their maps unchecked: every sphere of the gluing and
    the map its circuit cuts open pass build_map, and the contour the
    circuit recorded is the scan of its edges."""
    assert detect_wicked(bm, tree) == _scanned_wicked(bm, tree)
    assert _cuts(bm, tree) == _scanned_cuts(bm, tree)
    try:
        bubble, circuit = glue_bridgeless(bm, tree)
    except Disconnected:
        return None
    for g in range(1, bubble.dart_count + 1):
        assert bubble._corners[0][g] == _pairwise_vertex(bubble, g)
    assert circuit.is_non_crossing() == _pairwise_non_crossing(circuit)
    for s in bubble.spheres:
        assert build_map(s.sigma, s.alpha, s.root) == s
    alpha = bubble._table[1]
    assert (circuit_to_contour(circuit)
            == _walk_contour([min(g, alpha[g - 1]) for g in circuit.darts])
            == tree_to_contour(tree))
    cut = unglue_bubble(bubble, circuit)[1].map
    assert build_map(cut.sigma, cut.alpha, cut.root) == cut
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
    assert [v for _, _, v in _cuts(bm, tree)] == [3, 7]
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


# hand-built circuits on one sphere and across a pinch, with whether each
# is non-crossing; the loop hangs at the figure eight's one vertex
LOOP = build_map([2, 1], [2, 1], 1)
HAND_BUILT_CIRCUITS = (
    (BubbleMap((FIGURE_EIGHT,)), (1, 3, 2, 4), False),
    (BubbleMap((FIGURE_EIGHT,)), (1, 2, 3, 4), True),
    (BubbleMap((FIGURE_EIGHT, LOOP), ((0, 1, 1, 1),)), (1, 3, 2, 4, 5, 6),
     False),
    (BubbleMap((FIGURE_EIGHT, LOOP), ((0, 1, 1, 1),)), (1, 2, 3, 4, 5, 6),
     True),
)


def test_hand_built_circuits_cross_exactly_when_their_cut_reglues_wrong():
    """Each verdict is confirmed on its own: gluing the cut of a
    non-crossing circuit gives the same decorated bubble-map back, and that
    of a crossing one gives another.  Ungluing accepts both crossing
    circuits all the same (known defect 4, ROADMAP item 1)."""
    for bubble, darts, non_crossing in HAND_BUILT_CIRCUITS:
        circuit = Circuit(bubble, darts)
        tree, bmap = unglue_bubble(bubble, circuit)
        again = glue_bridgeless(bmap, tree)
        assert ((branching_key(*again) == branching_key(bubble, circuit))
                is non_crossing)
        assert circuit.is_non_crossing() is non_crossing


def test_bubbles_suite_checks_count_bubble_at_three_tree_edges(monkeypatch):
    """The suite's count lines reach m = 3 at cap 6 and catch a
    count_bubble that is wrong there only."""

    def doubled(e, m):
        return count_bubble(e, m) * (2 if m >= 3 else 1)

    monkeypatch.setattr(verify, "count_bubble", doubled)
    assert all(ok for _, ok in verify.bubbles(5))
    failed = [line for line, ok in verify.bubbles(6) if not ok]
    assert failed == ["count_bubble(0,3) = 1320 from 660 gluing inputs "
                      "x 3/3: FAIL"]


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
    """The circuits is_non_crossing used to refuse, a stray dart and a
    broken chain, are refused when they are made."""
    bubble, circuit = glue_bridgeless(
        BoundaryMap(FIGURE_EIGHT), contour_to_tree(DyckPath.from_word("UD")))
    with pytest.raises(MalformedCircuit, match="out of range"):
        Circuit(bubble, (1, 99))
    path2 = build_map([1, 3, 2, 4], [2, 1, 4, 3], 1)
    loop = build_map([2, 1], [2, 1], 1)
    two = BubbleMap((path2, loop), ((0, path2.vertex_of(1), 1, 1),))
    with pytest.raises(MalformedCircuit, match="not the tail"):
        Circuit(two, (1, 3))


def _global_cycle_corners(bubble):
    """Reference BubbleMap._corners: walk the cycles of the global sigma
    and find each one's sphere by bisection."""
    parent = {}
    for a, va, b, vb in bubble.pinches:
        _union(parent, (a, va), (b, vb))
    rep = [None] * (bubble.dart_count + 1)
    rank = [0] * (bubble.dart_count + 1)
    size = {}
    for cyc in _cycles(bubble._table[0]):
        v = _find(parent, to_local(bubble, cyc[0]))
        base = size.get(v, 0)
        for i, g in enumerate(cyc, base):
            rep[g] = v
            rank[g] = i
        size[v] = base + len(cyc)
    return rep, rank


def _gluings_and_joined_discs():
    for pm, bm, path in _bridgeless_inputs(5):
        yield glue_bridgeless(bm, contour_to_tree(path))
    for k, seeds in ((2, range(6)), (3, range(6)), (4, range(6)),
                     (16, (0,))):
        for seed in seeds:
            bm, path = _joined_disc(k, seed)
            yield glue_bridgeless(bm, contour_to_tree(path))


def test_corners_and_cyclic_keys_match_references():
    # only the corner table is checked here; the name is kept as the id
    multi = 0
    for bubble, _ in _gluings_and_joined_discs():
        assert bubble._corners == _global_cycle_corners(bubble)
        multi += len(bubble.spheres) > 1
    assert multi > 19
