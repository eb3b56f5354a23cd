"""Growth gate: the gluing kernels, the bubble kernels, the boundary and
tree contour walks, the decorated-map export and parse, ``build_map``,
``map_from_line`` and the canonical relabelling do linear work, counted
in executed Python lines.

A line count (:func:`linecount.count_lines`) is exact and repeats on any
host, so a kernel whose work grows faster than its input fails here at
sizes where a timing could not tell.  The blind spot: work inside C calls
(``sorted``, ``x in list``, slicing, regular expressions, ``str.split``
and ``join``, big-integer arithmetic) is not counted, so a quadratic
``list.index`` in a loop would pass; the bench's timings cover that.  The
export sorts the tree edges and the parse sorts the darts and runs a
regular expression over the vertex lines, all inside C calls; so do
``glue_bridgeless`` (each sphere's darts and the pinches),
``is_non_crossing`` (the corner chords at a vertex) and
``map_from_line`` (splitting the record into integers and sorting
sigma).
"""

from random import Random

from mapglue.bijection import (MultiBoundaryMap, TreeDecoratedMap, glue,
                               glue_forest, glue_partial, unglue)
from mapglue.bubbles import Circuit, glue_bridgeless, unglue_bubble
from mapglue.enumeration import enumerate_maps
from mapglue.maps import BoundaryMap, build_map, map_from_line, map_to_line
from mapglue.sampler import export_decorated, parse_decorated
from mapglue.trees import (DyckPath, contour_to_tree, sample_dyck_uniform,
                           tree_to_contour)

from bubble_reference import joined_disc
from linecount import count_lines

SIZE = 1000  # tree edges of the small inputs; the large ones have 4 times
RATIO = 4.4  # the most lines a kernel may run on the large inputs per line
             # on the small ones


def _kernel_lines(n: int) -> dict[str, int]:
    """The lines each kernel runs on seeded inputs with n-edge trees.

    The host is a plane tree whose root has two children, each carrying a
    uniform n-edge subtree.  Ungluing the first subtree and then the
    second leaves a map with two vertex-disjoint boundaries, which
    ``glue_forest`` sews shut again; ``glue`` and ``glue_partial`` sew the
    first boundary alone, and ``glue`` also runs on the boundary map that
    ``unglue`` returned, which holds its walk already.  That gluing is
    exported, parsed back and canonically relabelled, ``build_map``
    validates the host and ``map_from_line`` reads it back from its
    record.  The first tree's contour is read and rebuilt into a tree.
    The bubble kernels run twice: on that boundary, which glues into one
    sphere, and on n/2 copies of the 4-cycle joined at one vertex, which
    glue into n/2 spheres pinched together
    (``bubble_reference.joined_disc``), each read through a fresh
    ``bridgeless_walk`` first.  Each gluing's circuit is also made anew
    through ``Circuit``, which checks it, and both circuits are cut.
    """
    rng = Random(f"growth-{n}")
    first, second = (sample_dyck_uniform(n, rng).steps for _ in range(2))
    host = contour_to_tree(DyckPath((1, *first, -1, 1, *second, -1)))
    # dart i + 1 is contour step i: the subtrees' darts are 2..2n+1 and
    # 2n+4..4n+3
    subtrees = [(d, frozenset(host.edge_of(x) for x in range(d, d + 2 * n)))
                for d in (2, 2 * n + 4)]
    small = contour_to_tree(sample_dyck_uniform(n // 2, rng))
    lines = dict.fromkeys(("unglue", "glue", "glue_partial", "glue_forest",
                           "simple_walk", "export_decorated",
                           "parse_decorated", "build_map", "map_from_line",
                           "canonical_code", "tree_to_contour",
                           "contour_to_tree", "bridgeless_walk",
                           "glue_bridgeless", "Circuit", "is_non_crossing",
                           "unglue_bubble"), 0)

    def count(name, fn, *args):
        result, n_lines = count_lines(fn, *args)
        lines[name] += n_lines
        return result

    pmap, cuts = host, []
    for root, edges in subtrees:
        tdm = TreeDecoratedMap(pmap.rerooted(root), edges)
        tree, bmap = count("unglue", unglue, tdm)
        cuts.append((tree, bmap))
        pmap = bmap.map
    (tree1, bmap1), (tree2, bmap2) = cuts
    fresh = BoundaryMap(bmap1.map)
    count("simple_walk", fresh.simple_walk)
    decorated = count("glue", glue, bmap1, tree1)
    text = count("export_decorated", export_decorated, decorated)
    parsed = count("parse_decorated", parse_decorated, text)
    assert export_decorated(parsed) == text
    count("build_map", build_map, list(host.sigma), list(host.alpha),
          host.root)
    assert count("map_from_line", map_from_line, map_to_line(host)) == host
    contour = count("tree_to_contour", tree_to_contour, tree1)
    assert count("contour_to_tree", contour_to_tree, contour) == tree1
    count("canonical_code", decorated.map.canonical_code)
    count("glue", glue, BoundaryMap(bmap1.map), tree1)
    count("glue_partial", glue_partial, BoundaryMap(bmap1.map), small)
    glued = count("glue_forest", glue_forest,
                  MultiBoundaryMap(pmap, (bmap1.map.root, bmap2.map.root)),
                  (tree1, tree2))
    assert glued.map.canonical_code() == host.rerooted(2).canonical_code()
    square = [pm for pm in enumerate_maps(4).maps()
              if BoundaryMap(pm).simple_walk() is not None
              and BoundaryMap(pm).perimeter == 4]
    pinched, path = joined_disc(n // 2, f"growth-{n}", square)
    for bmap, tree in ((bmap1, tree1), (pinched, contour_to_tree(path))):
        fresh = BoundaryMap(bmap.map)
        assert (count("bridgeless_walk", fresh.bridgeless_walk)
                == bmap.boundary_walk())
        bubble, circuit = count("glue_bridgeless", glue_bridgeless, bmap, tree)
        checked = count("Circuit", Circuit, bubble, circuit.darts)
        assert checked == circuit
        count("is_non_crossing", circuit.is_non_crossing)
        # the traced circuit's cut is trusted, the checked one's is not
        count("unglue_bubble", unglue_bubble, bubble, circuit)
        count("unglue_bubble", unglue_bubble, bubble, checked)
    assert len(bubble.spheres) == n // 2
    return lines


def test_gluing_kernels_grow_linearly():
    small, large = _kernel_lines(SIZE), _kernel_lines(4 * SIZE)
    for name in small:
        assert small[name] > 0
        assert large[name] <= RATIO * small[name], (name, small[name],
                                                    large[name])
