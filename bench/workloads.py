"""The workloads' jobs: set-up, one checked pass, and the output checks.

A job runs inside one fresh worker process.  ``setup`` builds the inputs
(and may check some of them); ``run_pass`` performs every checked
operation of the job once.  Each operation has a key and gets one verdict:
``OK``, a documented known defect (counted as failed, ``KNOWN_*``), or an
unexpected failure (counted as failed, and the run is not correct).  Every
call into a mapglue function that does work goes through ``Tracer.call``
under the name of its module and function (constructors and cheap
accessors such as ``vertex_count`` are called directly), so a traced run
gets one span per such call.
"""

from __future__ import annotations

import os
from math import comb

from mapglue.bijection import (TreeDecoratedMap, check_tree_decoration, glue,
                               glue_forest, glue_partial, unglue)
from mapglue.bubbles import (circuit_to_contour, glue_bridgeless,
                             unglue_bubble)
from mapglue.counting import count_tree_decorated
from mapglue.enumeration import (brute_count_decorated,
                                 enumerate_boundary_maps, enumerate_maps,
                                 get_catalog, tree_submaps)
from mapglue.errors import Disconnected, MapGlueError
from mapglue.maps import BoundaryMap
from mapglue.sampler import (SampleSpec, draw_tree_decorated,
                             export_decorated, parse_decorated)
from mapglue.series import TruncatedSeries2, series_B, series_S
from mapglue.trees import (catalan, contour_to_tree, enumerate_trees,
                           tree_to_contour)

import gen
from spans import Tracer

OK = "ok"
KNOWN_DISCONNECTED = "known: glue_bridgeless raises Disconnected"
KNOWN_CROSSING = "known: is_non_crossing is False on an exact round trip"


def unexpected(detail: str) -> str:
    return "unexpected: " + detail


class Verdicts:
    """One verdict per distinct operation.  Later passes re-check the same
    operations; a verdict that changes between passes is unexpected."""

    def __init__(self):
        self.by_op: dict[str, str] = {}

    def put(self, key, verdict: str) -> None:
        key = str(key)
        prev = self.by_op.setdefault(key, verdict)
        if prev != verdict:
            self.by_op[key] = unexpected(
                f"verdict changed between passes ({prev!r} then {verdict!r})")

    def failures(self) -> dict[str, str]:
        return {k: v for k, v in self.by_op.items() if v != OK}


def _error(exc: MapGlueError) -> str:
    return unexpected(f"{type(exc).__name__}: {exc}")


class Job:
    """Base class: ``seed``, tracer and the role the parent assigned.
    ``ops_per_pass`` counts the operations a throughput figure is quoted
    in: draws, gluing operations or bridgeless round trips."""

    ops_per_pass = 0

    def __init__(self, seed: int, tr: Tracer, role: str):
        self.seed = seed
        self.tr = tr
        self.role = role

    def setup(self, v: Verdicts) -> None:
        pass

    def run_pass(self, v: Verdicts) -> None:
        raise NotImplementedError


# -- oracle -------------------------------------------------------------------

ROUNDTRIP_CAP = 5
# decorated grid of the counts suite: q -> {faces: largest tree size}
COUNTS_GRID = {3: {2: 2, 4: 3}, 4: {1: 2, 2: 3, 3: 4}}
PRINTED_S = {(1, 1): 1, (2, 1): 2, (1, 2): 1, (3, 1): 9, (2, 2): 1,
             (4, 1): 54, (3, 2): 5, (5, 1): 378, (3, 3): 1}


def _level(tr: Tracer, e: int):
    cat = tr.call("enumeration.enumerate_maps", enumerate_maps, e,
                  tag=f"e{e}")
    tr.put(f"enumeration.enumerate_maps.e{e}.maps", len(cat))
    return cat


def _decode(tr: Tracer, cat):
    maps = tr.call("enumeration.Catalog.maps", cat.maps)
    tr.add("enumeration.Catalog.maps.entries", len(maps))
    return maps


def _tree_submaps(tr: Tracer, pmap, m: int):
    subs = tr.call("enumeration.tree_submaps", tree_submaps, pmap, m)
    tr.add("enumeration.tree_submaps.found", len(subs))
    tr.add("enumeration.tree_submaps.tried", comb(pmap.edge_count, m))
    return subs


class RoundtripGroup(Job):
    """The roundtrip suite at cap 5, through the suite's own calls."""

    def run_pass(self, v: Verdicts) -> None:
        tr = self.tr
        for e in range(1, ROUNDTRIP_CAP + 1):
            for i, pmap in enumerate(_decode(tr, _level(tr, e))):
                root_edge = pmap.edge_of(pmap.root)
                for m in range(1, pmap.vertex_count):
                    for sub in _tree_submaps(tr, pmap, m):
                        if root_edge in sub:
                            v.put(("rt", e, i, sorted(sub)),
                                  self._decorated(TreeDecoratedMap(pmap, sub)))
        for m in range(1, ROUNDTRIP_CAP + 1):
            paths = tr.call("trees.enumerate_trees", enumerate_trees, m)
            for e in range(m, ROUNDTRIP_CAP + 1):
                cat = tr.call("enumeration.enumerate_boundary_maps",
                              enumerate_boundary_maps, e=e, perimeter=2 * m,
                              simple=True)
                for i, pm in enumerate(_decode(tr, cat)):
                    for j, path in enumerate(paths):
                        v.put(("pair", m, e, i, j),
                              self._pair(pm, path))

    def _decorated(self, tdm) -> str:
        tr = self.tr
        try:
            tree, bmap = tr.call("bijection.unglue", unglue, tdm, tag="small")
            back = tr.call("bijection.glue", glue, bmap, tree, tag="small")
        except MapGlueError as exc:
            return _error(exc)
        if back.map != tdm.map or back.tree_edges != tdm.tree_edges:
            return unexpected("glue(unglue(x)) differs from x")
        return OK

    def _pair(self, pm, path) -> str:
        tr = self.tr
        try:
            tree = tr.call("trees.contour_to_tree", contour_to_tree, path)
            tdm = tr.call("bijection.glue", glue, BoundaryMap(pm), tree,
                          tag="small")
            tree2, bmap2 = tr.call("bijection.unglue", unglue, tdm,
                                   tag="small")
            path2 = tr.call("trees.tree_to_contour", tree_to_contour, tree2)
            code2 = tr.call("maps.canonical_code", bmap2.map.canonical_code)
            code = tr.call("maps.canonical_code", pm.canonical_code)
        except MapGlueError as exc:
            return _error(exc)
        if path2 != path or code2 != code:
            return unexpected("unglue(glue(b, t)) differs from (b, t)")
        return OK


class CountsGroup(Job):
    """The counts suite's decorated grid: oracle against formula."""

    def run_pass(self, v: Verdicts) -> None:
        tr = self.tr
        for q, faces in COUNTS_GRID.items():
            for f, mmax in faces.items():
                for m in range(1, mmax + 1):
                    for mode in ("anywhere", "on-tree"):
                        try:
                            formula = tr.call(
                                "counting.count_tree_decorated",
                                count_tree_decorated, q, f, m, mode)
                            brute = tr.call(
                                "enumeration.brute_count_decorated",
                                brute_count_decorated, q, f=f,
                                tree_sizes=[m], root_mode=mode)
                        except MapGlueError as exc:
                            verdict = _error(exc)
                        else:
                            verdict = OK if formula == brute else unexpected(
                                f"formula {formula} != oracle {brute}")
                        v.put(("counts", q, f, m, mode), verdict)


class SeriesGroup(Job):
    """The series suite: printed S coefficients, S(x, yB) = B to order
    (8, 8), and S(4, 4) against enumeration."""

    def run_pass(self, v: Verdicts) -> None:
        tr = self.tr
        s = tr.call("series.series_S", series_S, 5, 3)
        for (e, p), want in sorted(PRINTED_S.items()):
            got = s.coeff(e, p)
            v.put(("printed", e, p),
                  OK if got == want else unexpected(f"s({e},{p}) = {got}"))
        b = tr.call("series.series_B", series_B, 8, 8)
        x = TruncatedSeries2.variable("x", 8, 8)
        y = TruncatedSeries2.variable("y", 8, 8)
        yb = tr.call("series.mul", y.__mul__, b)
        s88 = tr.call("series.series_S", series_S, 8, 8)
        lhs = tr.call("series.substitute", s88.substitute, x, yb)
        v.put("identity", OK if lhs == b else unexpected("S(x, yB) != B"))
        s44 = tr.call("series.series_S", series_S, 4, 4)
        for e in range(1, 5):
            counts: dict[int, int] = {}
            for pm in _decode(tr, _level(tr, e)):
                bm = BoundaryMap(pm)
                if bm.is_vertex_simple():
                    counts[bm.perimeter] = counts.get(bm.perimeter, 0) + 1
            for p in range(1, 5):
                got, want = int(s44.coeff(e, p)), counts.get(p, 0)
                v.put(("enumerated", e, p), OK if got == want else unexpected(
                    f"s({e},{p}) = {got}, enumeration {want}"))


# -- sample -------------------------------------------------------------------

SAMPLE_Q, SAMPLE_F, SAMPLE_M = 4, 4, 2
SAMPLE_DRAWS = 2000


class SampleJob(Job):
    """``mapglue sample`` for (q=4, f=4, m=2): catalog, then draws and
    exports.  The role says whether the catalog directory starts empty
    (``cold``: the catalog is built and saved) or holds the catalog a cold
    process saved (``warm``: it is loaded)."""

    def setup(self, v: Verdicts) -> None:
        tr = self.tr
        q, f, m = SAMPLE_Q, SAMPLE_F, SAMPLE_M
        had_files = bool(os.listdir(os.environ["MAPGLUE_CATALOG_DIR"]))
        if had_files != (self.role == "warm"):
            raise RuntimeError(f"{self.role} process found a catalog "
                               f"directory that is {'not ' * had_files}empty")
        self.spec = SampleSpec(q, f, m, self.seed, SAMPLE_DRAWS)
        self.ops_per_pass = SAMPLE_DRAWS
        self.support_bound = tr.call("counting.count_tree_decorated",
                                     count_tree_decorated, q, f, m,
                                     root_mode="on-tree")
        cat = tr.call("enumeration.get_catalog", get_catalog, q=q, f=f,
                      perimeter=2 * m, simple=True,
                      tag="load" if self.role == "warm" else "build")
        self.pool = _decode(tr, cat)
        v.put("catalog size", OK if len(self.pool) * catalan(m)
              == self.support_bound else unexpected(
                  f"{len(self.pool)} catalog maps for {self.support_bound} "
                  "decorated maps"))

    def run_pass(self, v: Verdicts) -> None:
        support = set()
        for i in range(SAMPLE_DRAWS):
            verdict, text = self._draw(i)
            v.put(("draw", i), verdict)
            support.add(text)
        v.put("support", OK if len(support) <= self.support_bound
              else unexpected(f"{len(support)} distinct exports exceed "
                              f"{self.support_bound} decorated maps"))

    def _draw(self, i: int):
        tr = self.tr
        try:
            tdm = tr.call("sampler.draw_tree_decorated", draw_tree_decorated,
                          self.spec, i, self.pool)
            text = tr.call("sampler.export_decorated", export_decorated, tdm)
            back = tr.call("sampler.parse_decorated", parse_decorated, text)
            tr.call("bijection.check_tree_decoration", check_tree_decoration,
                    back.map, back.tree_edges)
        except MapGlueError as exc:
            return _error(exc), None
        faces = back.map.faces()
        if (len(faces) != SAMPLE_F or any(len(c) != SAMPLE_Q for c in faces)
                or len(back.tree_edges) != SAMPLE_M
                or not back.root_on_tree):
            return unexpected("export does not parse back to a decorated "
                              "quadrangulation of the spec"), text
        return OK, text


# -- large --------------------------------------------------------------------

class LargeJob(Job):
    """Round trip, partial gluing and forest gluing on seeded random
    decorated maps of 150, 300 and 600 tree edges."""

    def setup(self, v: Verdicts) -> None:
        self.cases = gen.large_cases(self.seed, self.tr)
        self.ops_per_pass = 3 * len(self.cases)

    def run_pass(self, v: Verdicts) -> None:
        for c in self.cases:
            for kind in ("roundtrip", "partial", "forest"):
                try:
                    verdict = getattr(self, "_" + kind)(c, f"m{c.m}")
                except MapGlueError as exc:
                    verdict = _error(exc)
                v.put((kind, c.m), verdict)

    def _roundtrip(self, c, tag) -> str:
        tr = self.tr
        tree, bmap = tr.call("bijection.unglue", unglue, c.decorated, tag=tag)
        back = tr.call("bijection.glue", glue, bmap, tree, tag=tag)
        if (back.map != c.decorated.map
                or back.tree_edges != c.decorated.tree_edges):
            return unexpected("glue(unglue(x)) differs from x")
        if tr.call("trees.tree_to_contour", tree_to_contour, tree) != c.path:
            return unexpected("unglued tree has the wrong contour")
        code = tr.call("maps.canonical_code", bmap.map.canonical_code)
        if code != c.boundary_code:
            return unexpected("unglued boundary has the wrong canonical code")
        return OK

    def _partial(self, c, tag) -> str:
        tr = self.tr
        m2 = c.small_tree.edge_count
        res = tr.call("bijection.glue_partial", glue_partial, c.boundary,
                      c.small_tree, tag=tag)
        tr.call("bijection.check_tree_decoration", check_tree_decoration,
                res.map, res.tree_edges)
        if (len(res.tree_edges) != m2
                or len(res.map.root_face()) != 2 * (c.m - m2)
                or res.map.edge_count != c.boundary.map.edge_count - m2):
            return unexpected("glue_partial result has the wrong sizes")
        return OK

    def _forest(self, c, tag) -> str:
        tr = self.tr
        res = tr.call("bijection.glue_forest", glue_forest, c.multi, c.forest,
                      tag=tag)
        for edges in res.trees:
            tr.call("bijection.check_tree_decoration", check_tree_decoration,
                    res.map, edges)
        if [len(t) for t in res.trees] != [t.edge_count for t in c.forest]:
            return unexpected("glue_forest trees have the wrong sizes")
        code = tr.call("maps.canonical_code", res.map.canonical_code)
        if code != c.forest_code:
            return unexpected("glue_forest does not restore the map")
        return OK


# -- bubbles ------------------------------------------------------------------

BUBBLE_LEVEL = 6


class BubblesJob(Job):
    """Bridgeless gluing: every (bridgeless root face, tree) pair of the
    6-edge level, plus seeded joined discs of about 400 tree edges."""

    def setup(self, v: Verdicts) -> None:
        tr = self.tr
        for e in range(1, BUBBLE_LEVEL + 1):
            cat = _level(tr, e)
        maps = _decode(tr, cat)
        trees: dict[int, list] = {}
        self.cases = []
        for i, pm in enumerate(maps):
            bm = BoundaryMap(pm)
            if bm.perimeter % 2 or not bm.is_bridgeless():
                continue
            half = bm.perimeter // 2
            if half not in trees:
                trees[half] = [
                    (p, tr.call("trees.contour_to_tree", contour_to_tree, p))
                    for p in tr.call("trees.enumerate_trees", enumerate_trees,
                                     half)]
            heads = gen.head_vertices(bm)
            for j, (path, tree) in enumerate(trees[half]):
                self.cases.append(gen.BubbleCase(
                    f"e{BUBBLE_LEVEL}-{i}-{j}", bm, cat.entries[i], path, tree,
                    gen.expected_spheres(heads, path)))
        self.cases += gen.joined_disc_cases(self.seed, tr)
        self.ops_per_pass = len(self.cases)

    def run_pass(self, v: Verdicts) -> None:
        for case in self.cases:
            v.put(case.name, self._check(case))

    def _check(self, case) -> str:
        tr = self.tr
        try:
            bubble, circuit = tr.call("bubbles.glue_bridgeless",
                                      glue_bridgeless, case.boundary,
                                      case.tree)
        except MapGlueError as exc:
            tr.retag_last("bubbles.glue_bridgeless", "raised")
            tr.add("bubbles.glue_bridgeless.raised", 1)
            if isinstance(exc, Disconnected):
                return KNOWN_DISCONNECTED
            return _error(exc)
        tag = "one" if len(bubble.spheres) == 1 else "multi"
        tr.retag_last("bubbles.glue_bridgeless", tag)
        try:
            crossing_free = tr.call("bubbles.is_non_crossing",
                                    circuit.is_non_crossing, tag=tag)
            path = tr.call("bubbles.circuit_to_contour", circuit_to_contour,
                           circuit, tag=tag)
            tree, bmap = tr.call("bubbles.unglue_bubble", unglue_bubble,
                                 bubble, circuit, tag=tag)
            tree_path = tr.call("trees.tree_to_contour", tree_to_contour, tree)
            code = tr.call("maps.canonical_code", bmap.map.canonical_code)
        except MapGlueError as exc:
            return _error(exc)
        if len(bubble.spheres) != case.spheres:
            return unexpected(f"{len(bubble.spheres)} spheres, expected "
                              f"{case.spheres}")
        if path != case.path or tree_path != case.path:
            return unexpected("recovered contour differs from the tree's")
        if code != case.boundary_code:
            return unexpected("unglued boundary differs from the input")
        if not crossing_free:
            tr.add("bubbles.is_non_crossing.false_verdicts", 1)
            return KNOWN_CROSSING
        return OK


JOBS = {
    "oracle.roundtrip": RoundtripGroup,
    "oracle.counts": CountsGroup,
    "oracle.series": SeriesGroup,
    "sample": SampleJob,
    "large": LargeJob,
    "bubbles": BubblesJob,
}
