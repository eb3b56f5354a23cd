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

from dataclasses import dataclass
from random import Random

from .bijection import (TreeDecoratedMap, check_tree_decoration,
                        extract_tree, glue)
from .counting import count_tree_decorated
from .enumeration import get_catalog
from .errors import DecorationNotATree, FormatError, UnknownFormat
from .maps import BoundaryMap, PlanarMap, build_map
from .trees import contour_to_tree, sample_dyck_uniform, tree_to_contour


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
    return list(cat.maps())


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
                       words: tuple[str, ...] | None = None) -> ChiSquareReport:
    """Chi-square test of the tree marginal over the catalan(m) cells.

    With ``words`` the test restricts to draws whose tree falls in that
    subset, which must stay uniform within the subset.
    """
    from scipy.stats import chisquare

    if draws is None:
        draws = spec.count
    pool = _catalog_maps(spec)
    counts: dict[str, int] = {}
    for i in range(draws):
        tdm = draw_tree_decorated(spec, i, pool)
        tree, _ = extract_tree(tdm.map, tdm.tree_edges)
        counts[tree_to_contour(tree).to_word()] = 1 + counts.get(
            tree_to_contour(tree).to_word(), 0)
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


def parse_decorated(text: str) -> TreeDecoratedMap:
    """Inverse of :func:`export_decorated` for the plain format."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("decorated "):
        raise FormatError("expected a 'decorated' header")
    try:
        fields = dict(tok.split("=", 1) for tok in lines[0].split()[1:])
        edges = int(fields["edges"])
        root = int(fields["root"])
    except (KeyError, ValueError) as exc:
        raise FormatError("malformed decorated header") from exc
    n = 2 * edges
    sigma = [0] * n
    alpha = [0] * n
    tree = None
    for ln in lines[1:]:
        if ln.startswith("vertex "):
            darts = []
            for tok in ln.split(":", 1)[1].split():
                try:
                    d, a = map(int, tok.split("/"))
                except ValueError as exc:
                    raise FormatError(f"malformed vertex line {ln!r}") from exc
                if not 0 < d <= n:
                    raise FormatError(f"dart {d} out of range in {ln!r}")
                alpha[d - 1] = a
                darts.append(d)
            for d, e in zip(darts, darts[1:] + darts[:1]):
                sigma[d - 1] = e
        elif ln.startswith("tree:"):
            try:
                tree = frozenset(int(x) for x in ln.split(":", 1)[1].split(","))
            except ValueError as exc:
                raise FormatError(f"malformed tree line {ln!r}") from exc
        else:
            raise FormatError(f"unexpected line {ln!r}")
    if tree is None:
        raise FormatError("missing tree line")
    pmap = build_map(sigma, alpha, root)
    try:
        check_tree_decoration(pmap, tree)
    except DecorationNotATree as exc:
        raise FormatError(f"tree line: {exc}") from exc
    return TreeDecoratedMap(pmap, tree)
