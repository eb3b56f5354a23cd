"""Exact-uniform sampling of tree-decorated q-angulations.

A uniform decorated map is a uniform pair pushed through the gluing: a
uniform simple-boundary q-angulation from the exhaustive catalog and a
uniform tree, glued.  Uniformity is structural (uniform pair through a
bijection); the chi-square test on the tree marginal exists only to
catch implementation faults.

A draw is one rank r, uniform in [0, N) with N = |pool| * Catalan(m),
decoded as catalog map ``r // Catalan(m)`` and tree ``r % Catalan(m)`` in
the order of :func:`~mapglue.trees.enumerate_trees`.  Distinct ranks
decode to distinct pairs, so a uniform r gives a uniform pair.  Draw ``i``
of seed ``s`` takes r from the SHA-256 digest of ``"s:i:k"``, for k = 0,
1, ... until the 256-bit digest falls below the largest multiple of N,
and r is the digest mod N: exactly uniform whenever the digest bits are,
which is what ``random.Random`` assumes when it seeds from a string.
Draws are indexed, so parallel generation produces the same multiset as
serial generation and a fixed spec is byte-reproducible.

Each pool map is sewn through its frame (:func:`~mapglue.bijection._frame`),
built the first time the map is drawn and kept while the same pool is
drawn from, so a draw only pairs the m sewn edges.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, count

from .bijection import (TreeDecoratedMap, _contour_match, _decorated,
                        _glue_frame, _tree_contour, check_tree_decoration)
from .counting import count_tree_decorated
from .enumeration import get_catalog, sha256
from .errors import DecorationNotATree, FormatError
from .maps import (BoundaryMap, PlanarMap, _canonical, _cycles, _ints,
                   _record, build_map)
from .trees import DyckPath, catalan, contour_to_tree, enumerate_trees


@dataclass(frozen=True)
class SampleSpec:
    """What to sample: q-angulations with f faces decorated by m-edge
    trees (root on the tree), how many, and with which seed."""

    q: int
    f: int
    m: int
    seed: int
    count: int


def _catalog_maps(spec: SampleSpec) -> tuple[PlanarMap, ...]:
    # raises Infeasible for bad (q, f, m) before touching the catalog
    count_tree_decorated(spec.q, spec.f, spec.m, root_mode="on-tree")
    cat = get_catalog(q=spec.q, f=spec.f, perimeter=2 * spec.m, simple=True)
    return cat.maps()


@lru_cache(maxsize=None)
def _matchings(m: int) -> tuple[tuple[int, ...], ...]:
    """The contour matching of each m-edge tree, in the order of
    :func:`~mapglue.trees.enumerate_trees`: the tree of rank t is
    ``_matchings(m)[t]``."""
    return tuple([tuple(_contour_match(contour_to_tree(path)))
                  for path in enumerate_trees(m)])


def _rank(key: str, n: int) -> int:
    """Uniform in [0, n) from the SHA-256 digests of ``key:k``: the first
    below the largest multiple of n, mod n."""
    limit = (1 << 256) // n * n
    for k in count():
        r = int.from_bytes(sha256(f"{key}:{k}".encode()).digest(), "big")
        if r < limit:
            return r % n


# the pool last drawn from, its m, and one frame (or None) per map: the
# pool itself is held, so that no other pool can take its identity
_pool_frames: tuple = (None, 0, [])


def _pool_frame(pool: tuple[PlanarMap, ...], m: int, k: int):
    """The frame of ``pool[k]`` for m-edge trees, built on its first draw
    with :func:`~mapglue.bijection.glue`'s checks."""
    global _pool_frames
    held, held_m, frames = _pool_frames
    if held is not pool or held_m != m:
        frames = [None] * len(pool)
        _pool_frames = pool, m, frames
    frame = frames[k]
    if frame is None:
        frame = frames[k] = _glue_frame(BoundaryMap(pool[k]), m)
    return frame


def draw_tree_decorated(spec: SampleSpec, index: int,
                        pool: tuple[PlanarMap, ...] | None = None,
                        ) -> TreeDecoratedMap:
    """Draw number ``index`` of the spec, independent of all other draws:
    the pair of rank r in [0, |pool| * Catalan(m)) glued, r taken from the
    digests of ``"seed:index:k"`` (see the module docstring)."""
    if pool is None:
        pool = _catalog_maps(spec)
    r = _rank(f"{spec.seed}:{index}", len(pool) * catalan(spec.m))
    return _decoded(pool, spec.m, r)


def _decoded(pool: tuple[PlanarMap, ...], m: int,
             r: int) -> TreeDecoratedMap:
    """The pair of rank r glued: ``pool[r // Catalan(m)]`` and the m-edge
    tree of rank ``r % Catalan(m)``, sewn through the map's frame."""
    k, t = divmod(r, catalan(m))
    frame = _pool_frame(pool, m, k)
    return _decorated(frame, _matchings(m)[t], frame.ends[0])


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


def tree_marginal_test(spec: SampleSpec,
                       drawn: list[TreeDecoratedMap] | None = None,
                       ) -> ChiSquareReport:
    """Chi-square test of the tree marginal over the trees drawn.

    The test takes draws 0..``spec.count``-1 of ``spec``, or the decorated
    maps ``drawn`` when the caller already has them.  Its cells are the
    trees that occur, each expected equally often.
    """
    from scipy.stats import chisquare

    if drawn is None:
        pool = _catalog_maps(spec)
        drawn = (draw_tree_decorated(spec, i, pool)
                 for i in range(spec.count))
    counts: dict[tuple[int, ...], int] = {}
    for tdm in drawn:
        steps = tuple(_tree_contour(tdm.map, tdm.tree_edges)[1])
        counts[steps] = 1 + counts.get(steps, 0)
    paths = sorted(counts)  # -1 before 1, as D before U: the words ascend
    words = [DyckPath(p).to_word() for p in paths]
    observed = [counts[p] for p in paths]
    total = sum(observed)
    if len(words) == 1:
        statistic, pvalue = 0.0, 1.0
    else:
        statistic, pvalue = chisquare(observed)
    return ChiSquareReport(tuple(zip(words, observed)), total,
                           float(statistic), float(pvalue))


# -- structure export ----------------------------------------------------------

def export_decorated(tdm: TreeDecoratedMap) -> str:
    """Deterministic adjacency-with-rotation text for a decorated map.

    The map is canonically relabelled first (so the root is dart 1); each
    vertex line lists its darts in rotation order as ``dart/partner``
    pairs, starting at its smallest dart, and the lines come in
    increasing order of that dart.
    """
    pmap = tdm.map
    code, image = _canonical(pmap.sigma, pmap.alpha, (pmap.root,))
    n = pmap.dart_count
    alpha = code[n:]
    # each cycle starts at its smallest dart, in increasing order
    vertices = _cycles(code[:n])
    tree = sorted(min(image[e], image[pmap.alpha[e - 1]])
                  for e in tdm.tree_edges)
    lines = [f"decorated vertices={len(vertices)} edges={n // 2} root=1"]
    for cyc in vertices:
        pairs = " ".join(f"{d}/{alpha[d - 1]}" for d in cyc)
        lines.append(f"vertex {cyc[0]}: {pairs}")
    lines.append("tree: " + ",".join(str(e) for e in tree))
    return "\n".join(lines) + "\n"


# two "/" in one word of a vertex line
_TWO_SLASHES = re.compile(r"/[^\s/]*/")


def parse_decorated(text: str) -> TreeDecoratedMap:
    """Inverse of :func:`export_decorated`."""
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
    # the count first: a large edges= must not build its range
    if len(darts) != n or sorted(darts) != list(range(1, n + 1)):
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
