"""Verification suites, shared by ``mapglue verify`` and the acceptance gate.

Each suite is a generator ``suite(cap)`` that yields ``(line, ok)``
records: ``line`` is the text ``mapglue verify`` prints and ``ok`` says
whether the checks behind that line passed.  A suite passes when every
record is ok.  ``cap`` bounds the edge count of the exhaustive sweeps:
``roundtrip``, and ``bubbles``, which glues up to 4 edges and counts up
to the cap.  The other suites have fixed ranges.
"""

from __future__ import annotations

from .bijection import TreeDecoratedMap, glue, unglue
from .bubbles import circuit_to_contour, glue_bridgeless, unglue_bubble
from .counting import (catalan_ext, count_boundary_decorated,
                       count_boundary_decorated_tri_printed, count_bubble,
                       count_forest, count_forest_printed, count_spanning,
                       count_spanning_forest, count_spanning_forest_printed,
                       count_spanning_tri_printed, count_tree_decorated,
                       mullin_count, reroot_check, verify_integrality)
from .enumeration import (brute_count_decorated, enumerate_boundary_maps,
                          enumerate_maps, tree_submaps)
from .maps import BoundaryMap
from .series import TruncatedSeries2, series_B, series_B1, series_S
from .trees import (catalan, contour_to_tree, enumerate_trees,
                    tree_to_contour)


def _marked(line: str, ok: bool):
    return line + ("" if ok else " FAIL"), ok


def _verdict(prefix: str, ok: bool):
    return prefix + ("ok" if ok else "FAIL"), ok


def _grid(q: int):
    """The (faces, tree edges) pairs checked for q-angulations."""
    fmax = 4 if q == 3 else 3
    step = 2 if q == 3 else 1
    for f in range(step, fmax + 1, step):
        mmax = f // 2 + 1 if q == 3 else f + 1
        for m in range(1, mmax + 1):
            yield f, m


def roundtrip(cap: int):
    """Glue and unglue are inverse on every case up to ``cap`` edges."""
    checked = failures = 0
    # decorated map -> (tree, boundary map) -> decorated map, dart-exact
    for e in range(1, cap + 1):
        for pmap in enumerate_maps(e).maps():
            root_edge = pmap.edge_of(pmap.root)
            for m in range(1, pmap.vertex_count):
                for sub in tree_submaps(pmap, m, root_edge):
                    tdm = TreeDecoratedMap(pmap, sub)
                    tree, bmap = unglue(tdm)
                    back = glue(bmap, tree)
                    checked += 1
                    if back.map != tdm.map or back.tree_edges != tdm.tree_edges:
                        failures += 1
    yield (f"decorated->pair->decorated: {checked} cases, "
           f"{failures} failures", failures == 0)
    # (boundary map, tree) -> decorated map -> (boundary map, tree)
    checked = failures = 0
    for m in range(1, cap + 1):
        trees = enumerate_trees(m)
        for e in range(m, cap + 1):
            for pm in enumerate_boundary_maps(e=e, perimeter=2 * m,
                                              simple=True).maps():
                bmap = BoundaryMap(pm)
                for path in trees:
                    tdm = glue(bmap, contour_to_tree(path))
                    tree2, bmap2 = unglue(tdm)
                    checked += 1
                    if (tree_to_contour(tree2) != path
                            or bmap2.map.canonical_code()
                            != pm.canonical_code()):
                        failures += 1
    yield (f"pair->decorated->pair: {checked} cases, {failures} failures",
           failures == 0)


def counts(cap: int):
    """Closed-form counts against the exhaustive oracles."""
    for q in (3, 4):
        for f, m in _grid(q):
            for mode in ("anywhere", "on-tree"):
                formula = count_tree_decorated(q, f, m, mode)
                brute = brute_count_decorated(q, f=f, tree_sizes=[m],
                                              root_mode=mode)
                yield _marked(f"decorated q={q} f={f} m={m} {mode}: "
                              f"formula {formula} oracle {brute}",
                              formula == brute)
    for f in range(1, 5):
        lhs = count_spanning(4, f, "on-tree")
        rhs = catalan_ext(2, f)
        yield _marked(f"spanning quadrangulations f={f} on-tree: {lhs} "
                      f"= C_(2,{f}) = {rhs}", lhs == rhs)
    for e in range(1, 4):
        brute = 0
        for pm in enumerate_maps(e).maps():
            v = pm.vertex_count
            brute += 1 if v == 1 else len(tree_submaps(pm, v - 1))
        yield _marked(f"mullin e={e}: formula {mullin_count(e)} "
                      f"oracle {brute}", mullin_count(e) == brute)
    # known divergences between published closed forms and the oracle;
    # the corrected functions are the defaults, the published forms are
    # kept for reporting and are expected to differ
    for line in (
            "spanning triangulations f=2: published form gives "
            f"{count_spanning_tri_printed(2)}, oracle {count_spanning(3, 2)}",
            "spanning triangulations f=4: published form gives "
            f"{count_spanning_tri_printed(4)}, oracle {count_spanning(3, 4)}",
            "unlabeled forests q=4 f=2 sizes=1,1: published symmetry factor "
            f"gives {count_forest_printed(4, 2, [1, 1])}, "
            f"oracle {count_forest(4, 2, [1, 1])}",
            "spanning forests q=3 f=2 sizes=2: published double factorial "
            f"gives {count_spanning_forest_printed(3, 2, [2])}, "
            f"oracle {count_spanning_forest(3, 2, [2])}",
            "boundary-decorated triangulations f=2 m1=0 m2=2: published "
            "denominator gives "
            f"{count_boundary_decorated_tri_printed(2, 0, 2)} (not integral), "
            f"oracle {count_boundary_decorated(3, 2, 0, 2)}"):
        yield f"flagged divergence: {line} (oracle normative)", True


# coefficients s(e, p) of S(x, z) as printed in the paper
PRINTED_S = {(1, 1): 1, (2, 1): 2, (1, 2): 1, (3, 1): 9, (2, 2): 1,
             (4, 1): 54, (3, 2): 5, (5, 1): 378, (3, 3): 1}


def series(cap: int):
    """Printed coefficients, the substitution identity and enumeration."""
    s = series_S(5, 3)
    for (e, p), want in sorted(PRINTED_S.items()):
        got = s.coeff(e, p)
        yield _marked(f"s({e},{p}) = {got} (expected {want})", got == want)
    b = series_B(8, 8)
    x = TruncatedSeries2.variable("x", 8, 8)
    y = TruncatedSeries2.variable("y", 8, 8)
    yield _verdict("substitution identity S(x, yB) = B to order (8,8): ",
                   series_S(8, 8).substitute(x, y * b) == b)
    s44 = series_S(4, 4)
    enum_ok = True
    for e in range(1, 5):
        found: dict[int, int] = {}
        for pm in enumerate_maps(e).maps():
            bm = BoundaryMap(pm)
            if bm.is_vertex_simple():
                found[bm.perimeter] = found.get(bm.perimeter, 0) + 1
        for p in range(1, 5):
            got, want = int(s44.coeff(e, p)), found.get(p, 0)
            if got != want:
                enum_ok = False
                yield f"s({e},{p}) = {got} vs enumeration {want} FAIL", False
    yield _verdict("s coefficients vs enumeration, e <= 4: ", enum_ok)
    b1 = series_B1(4)
    row = [int(b1.coeff(e, 0)) for e in range(5)]
    yield _marked(f"B(x,1) coefficients {row}", row == [1, 2, 9, 54, 378])


def rerooting(cap: int):
    """Counts are independent of where the root is placed."""
    for q in (3, 4):
        for f, m in _grid(q):
            yield _verdict(f"reroot q={q} f={f} sizes=[{m}]: ",
                           reroot_check(q, f, [m]))
    for q, f, sizes in ((4, 2, [1, 1]), (4, 3, [1, 2]), (3, 4, [1, 1])):
        yield _verdict(f"reroot q={q} f={f} sizes={sizes}: ",
                       reroot_check(q, f, sizes))


def integrality(cap: int):
    """Generalised Catalan numbers are integers."""
    for m in range(1, 7):
        yield _verdict(f"C_({m},n) integral for n <= 40: ",
                       all(verify_integrality(m, n) for n in range(41)))


def bubbles(cap: int):
    """Bridgeless gluing and bubble ungluing are inverse up to 4 edges, and
    ``count_bubble`` counts the gluings up to ``cap`` edges.

    Gluing sends the (boundary map, tree) pairs of cell (e, m), a
    bridgeless root face of degree 2m with e more edges, to the bubble-maps
    of that cell rooted on their circuit; rooting anywhere multiplies by
    2(e + m) / 2m.  So inputs * (e + m) = count_bubble(e, m) * m.
    """
    glued = min(cap, 4)
    checked = multi = failures = 0
    faces: dict[tuple[int, int], int] = {}  # bridgeless root faces by (E, m)
    for n in range(1, cap + 1):
        for pm in enumerate_maps(n).maps():
            bm = BoundaryMap(pm)
            if bm.perimeter % 2 or not bm.is_bridgeless():
                continue
            m = bm.perimeter // 2
            faces[n, m] = faces.get((n, m), 0) + 1
            if n > glued:
                continue
            for path in enumerate_trees(m):
                tree = contour_to_tree(path)
                bubble, circuit = glue_bridgeless(bm, tree)
                checked += 1
                multi += len(bubble.spheres) > 1
                tree2, bm2 = unglue_bubble(bubble, circuit)
                if (circuit_to_contour(circuit) != path
                        or not circuit.is_non_crossing()
                        or tree_to_contour(tree2) != path
                        or bm2.map.canonical_code() != pm.canonical_code()):
                    failures += 1
    yield (f"bridgeless round trips, <= {glued} edges: {checked} cases "
           f"({multi} multi-sphere), {failures} failures", failures == 0)
    for n in range(2, cap + 1):
        for m in range(1, n // 2 + 1):
            e = n - 2 * m
            inputs = faces.get((n, m), 0) * catalan(m)
            count = count_bubble(e, m)
            yield _verdict(f"count_bubble({e},{m}) = {count} from {inputs} "
                           f"gluing inputs x {e + m}/{m}: ",
                           inputs * (e + m) == count * m)


SUITES = {
    "roundtrip": roundtrip,
    "counts": counts,
    "series": series,
    "rerooting": rerooting,
    "integrality": integrality,
    "bubbles": bubbles,
}
