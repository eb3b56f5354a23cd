"""Exact-uniform sampling of tree-decorated q-angulations.

A uniform decorated map is a uniform pair pushed through the gluing: draw
a uniform simple-boundary q-angulation from the exhaustive catalog and an
independent uniform tree by the cycle lemma, then glue.  Uniformity is
structural (uniform x uniform through a bijection); the chi-square test on
the tree marginal exists only to catch implementation faults.

Draws are indexed: draw ``i`` of seed ``s`` uses its own generator seeded
with ``"s:i"``, so parallel generation produces the same multiset as
serial generation and a fixed spec is byte-reproducible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate
from random import Random

from .bijection import (TreeDecoratedMap, _tree_contour,
                        check_tree_decoration, glue)
from .counting import count_tree_decorated
from .enumeration import get_catalog
from .errors import DecorationNotATree, FormatError, UnknownFormat
from .maps import BoundaryMap, PlanarMap, _ints, _record, build_map
from .trees import contour_to_tree, sample_dyck_uniform


@dataclass(frozen=True)
class SampleSpec:
    """What to sample: q-angulations with f faces decorated by m-edge
    trees (root on the tree), how many, and with which seed."""

    q: int
    f: int
    m: int
    seed: int
    count: int


def _catalog_maps(spec: SampleSpec) -> list[PlanarMap]:
    # raises Infeasible for bad (q, f, m) before touching the catalog
    count_tree_decorated(spec.q, spec.f, spec.m, root_mode="on-tree")
    cat = get_catalog(q=spec.q, f=spec.f, perimeter=2 * spec.m, simple=True)
    return cat.maps()


def draw_tree_decorated(spec: SampleSpec, index: int,
                        pool: list[PlanarMap] | None = None) -> TreeDecoratedMap:
    """Draw number ``index`` of the spec, independent of all other draws."""
    if pool is None:
        pool = _catalog_maps(spec)
    rng = Random(f"{spec.seed}:{index}")
    pm = pool[rng.randrange(len(pool))]
    path = sample_dyck_uniform(spec.m, rng)
    return glue(BoundaryMap(pm), contour_to_tree(path))


def sample_tree_decorated(spec: SampleSpec) -> list[TreeDecoratedMap]:
    """``spec.count`` independent exactly-uniform decorated maps."""
    pool = _catalog_maps(spec)
    return [draw_tree_decorated(spec, i, pool) for i in range(spec.count)]


@dataclass(frozen=True)
class ChiSquareReport:
    """Tree-marginal frequencies against the uniform expectation."""

    cells: tuple[tuple[str, int], ...]  # (contour word, observed count)
    draws: int
    statistic: float
    pvalue: float

    @property
    def passed(self) -> bool:
        return self.pvalue > 0.001


def tree_marginal_test(spec: SampleSpec, draws: int | None = None,
                       words: tuple[str, ...] | None = None,
                       drawn: list[TreeDecoratedMap] | None = None,
                       ) -> ChiSquareReport:
    """Chi-square test of the tree marginal over the catalan(m) cells.

    The test takes draws 0..``draws``-1 of ``spec`` (all ``spec.count``
    by default), or the decorated maps ``drawn`` when the caller already
    has them.  With ``words`` the test restricts to draws whose tree falls
    in that subset, which must stay uniform within the subset.
    """
    from scipy.stats import chisquare

    if drawn is None:
        pool = _catalog_maps(spec)
        drawn = (draw_tree_decorated(spec, i, pool)
                 for i in range(spec.count if draws is None else draws))
    counts: dict[str, int] = {}
    for tdm in drawn:
        word = _tree_contour(tdm.map, tdm.tree_edges)[1].to_word()
        counts[word] = 1 + counts.get(word, 0)
    if words is None:
        words = tuple(sorted(counts))
    observed = [counts.get(w, 0) for w in words]
    total = sum(observed)
    if len(words) == 1:
        statistic, pvalue = 0.0, 1.0
    else:
        statistic, pvalue = chisquare(observed)
    return ChiSquareReport(tuple(zip(words, observed)), total,
                           float(statistic), float(pvalue))


# -- structure export ----------------------------------------------------------

def export_decorated(tdm: TreeDecoratedMap, format: str = "plain") -> str:
    """Deterministic adjacency-with-rotation text for a decorated map.

    The map is canonically relabelled first; each vertex line lists its
    darts in rotation order as ``dart/partner`` pairs.
    """
    if format != "plain":
        raise UnknownFormat(f"unknown export format {format!r}")
    image = tdm.map.canonical_relabelling()
    pmap = tdm.map.relabel(image)
    tree = sorted(min(image[e], image[tdm.map.alpha_of(e)])
                  for e in tdm.tree_edges)
    lines = [f"decorated vertices={pmap.vertex_count} "
             f"edges={pmap.edge_count} root={pmap.root}"]
    for cyc in sorted(pmap.vertices()):
        start = cyc.index(min(cyc))
        cyc = cyc[start:] + cyc[:start]
        pairs = " ".join(f"{d}/{pmap.alpha_of(d)}" for d in cyc)
        lines.append(f"vertex {cyc[0]}: {pairs}")
    lines.append("tree: " + ",".join(str(e) for e in tree))
    return "\n".join(lines) + "\n"


# two "/" in one word of a vertex line
_TWO_SLASHES = re.compile(r"/[^\s/]*/")


def parse_decorated(text: str) -> TreeDecoratedMap:
    """Inverse of :func:`export_decorated` for the plain format."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = _record(lines[0] if lines else "", "decorated",
                   ("vertices", "edges", "root"))
    vertices, edges, root = _ints(
        f"{head['vertices']},{head['edges']},{head['root']}", count=3)
    names, rotations, sizes = [], [], []
    tree = None
    for ln in lines[1:]:
        name, colon, pairs = ln.partition(":")
        if name == "tree":
            if tree is not None:
                raise FormatError("second tree line")
            tree = frozenset(_ints(pairs))
            continue
        # vertex <first dart>: <dart>/<partner> ... in rotation order
        slashes = pairs.count("/")
        if not (slashes and colon and name.startswith("vertex ")):
            raise FormatError(f"unexpected line {ln!r}")
        names.append(name[7:])
        rotations.append(pairs)
        sizes.append(slashes)
    if tree is None:
        raise FormatError("missing tree line")
    if vertices != len(sizes):
        raise FormatError("vertices= does not count the vertex lines")
    # a word with at most one "/" holds two integers only as d/a, so two
    # per word keeps every line to its own pairs
    rotation = " ".join(rotations)
    if _TWO_SLASHES.search(rotation):
        raise FormatError("a vertex line holds a word that is no d/a pair")
    nums = _ints(rotation.replace("/", " "), None, 2 * len(rotation.split()))
    darts = nums[::2]
    ends = list(accumulate(sizes))
    firsts = [darts[end - size] for end, size in zip(ends, sizes)]
    if _ints(",".join(names), ",", len(names)) != firsts:
        raise FormatError("a vertex line is not named by its first dart")
    successors = darts[1:] + darts[:1]
    for end, first in zip(ends, firsts):
        successors[end - 1] = first
    n = 2 * edges
    if sorted(darts) != list(range(1, n + 1)):
        raise FormatError(f"the vertex lines do not list darts 1..{n} "
                          f"once each")
    sigma = [0] * n
    alpha = [0] * n
    for d, a, e in zip(darts, nums[1::2], successors):
        sigma[d - 1] = e
        alpha[d - 1] = a
    pmap = build_map(sigma, alpha, root)
    try:
        check_tree_decoration(pmap, tree)
    except DecorationNotATree as exc:
        raise FormatError(f"tree line: {exc}") from exc
    return TreeDecoratedMap(pmap, tree)
