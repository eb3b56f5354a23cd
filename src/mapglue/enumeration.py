"""Exhaustive generation of rooted planar maps and filtered catalogs.

General rooted maps are generated by Tutte's root-edge decomposition ("A
census of planar maps", 1963).  The root edge of a rooted map with e edges
is either a bridge joining two smaller maps whose edge counts sum to e-1,
or a chord of a map with e-1 edges, running from its root corner to one
of the k+1 corners of its root face of degree k.  Deleting the root edge
inverts both constructions, so each rooted map is built exactly once, and
no deduplication is needed.  Each is canonicalised once, from its raw
rotation arrays, and the catalog holds its canonical code, the map
relabelled from its root, which becomes dart 1.  Canonical labelling
makes the alpha arrays repetitive (73 distinct ones among the 24,057
maps with 6 edges), and a catalog holds each distinct one once.  Two
checks guard the level: a short code (a disconnected construction)
raises :class:`Disconnected`, and two equal codes raise
:class:`InternalMismatch`.

Boundary catalogs of q-angulations need more edges than the general levels
can afford, so they are built cell by cell with the same decomposition
(Tutte, "A census of planar triangulations", 1962).  A rooted map with f
internal q-gons and a root face of degree p is a root chord to corner q-1
of the root face of a map with f-1 internal q-gons and a root face of
degree p+q-2 (the chord closes the new q-gon), or a root bridge between two
such maps whose internal faces number f and whose root faces have degrees
summing to p-2.  The chord chain is streamed and only the bridge factors
are kept, for one build.  In the requested cell the catalog filter runs
on each raw map first, and only the maps it keeps are canonicalised, once
each, with the same two checks.

Every catalog is held once per process, in one store keyed by its
:class:`CatalogFilter` and filled by one builder, :func:`_family`: a
general level, a q-angulation cell (the sphere pools of the brute-force
counts are the cells whose root face is a q-gon, so no level is scanned
for them), or another general family, a subsequence of its level.  The
size cap is checked before the store is consulted, so a warm call refuses
exactly what a cold call refuses.  The same decomposition counts the maps
with e edges by root face degree k: G(e, k) of :func:`_root_face_counts`.

The brute-force decorated counts and the round-trip oracle find tree
submaps by testing edge subsets on vertex bit masks: each edge is the
mask of its two end vertices, computed once per map, since the callers
take every tree size of one map in turn (:func:`_edge_masks`).  m edges
form a tree when their masks span m + 1 vertices and a sweep from the
first edge reaches all of them (:func:`_trees_among`), and the trees of a
forest are vertex-disjoint when their masks share no bit.

A catalog prints as text (:func:`catalog_to_text`, the output of
``mapglue enumerate``), and :func:`get_catalog`, the one code that opens a
catalog file, caches q-angulation families as such text in the directory
that the MAPGLUE_CATALOG_DIR environment variable names: it returns the
store's catalog, else reads the file into the store, else builds the
catalog and saves it.  A file is written under a temporary name and
renamed over the target, so a reader never sees a partial file.  Its
header ends in ``version=1``, the file format version, and its last line
is ``checksum=sha256:<hex>``, the SHA-256 digest of every line above it,
so any edit, truncation or reordering is detected.  A file without
either, with another version or the earlier byte-sum checksum, or whose
header names another filter than the one requested is refused with
:class:`FormatError`.

Maps are validated where they enter: :func:`catalog_from_text`, the only
code here that decodes a code, runs each map it reads through
:func:`~mapglue.maps.build_map`, and refuses a file whose entries are not
strictly increasing canonical codes of maps of the family its header
names, or, for a general family, whose count is not the one G gives.
Catalogs built in process keep the maps their enumeration built; the
tests run those through it instead, and keep the level filtered by face
degree as the reference the sphere pools must equal.
"""

from __future__ import annotations

import os
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import combinations, pairwise, repeat, starmap
from math import factorial, prod
from operator import eq, or_

try:  # the builtin module, as random.py does: hashlib also loads OpenSSL
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from .errors import (CapExceeded, Disconnected, FormatError, Infeasible,
                     InternalMismatch, MapGlueError)
from .maps import (BoundaryMap, PlanarMap, _canonical, _ints, _record,
                   _vertex_ids, build_map)
from .trees import catalan

EDGE_CAP = 6        # general enumeration, by edge count
QANG_EDGE_CAP = 10  # q-angulation boundary catalogs, by total edge count
CATALOG_VERSION = "1"  # catalog file format


@dataclass(frozen=True)
class CatalogFilter:
    """Family descriptor: q = 0 means general maps; zero fields are
    unconstrained."""

    q: int = 0
    f: int = 0
    e: int = 0
    perimeter: int = 0
    simple: bool = False
    bridgeless: bool = False


@dataclass(frozen=True)
class Catalog:
    """The rooted maps of a family, as ``entries``: each is its own
    canonical code (:meth:`~mapglue.maps.PlanarMap.canonical_code`,
    rooted at dart 1), in increasing order of ``sigma + alpha``.

    Equal alpha arrays are one tuple, whether the catalog was built or
    read from text.
    """

    filter: CatalogFilter
    entries: tuple[PlanarMap, ...] = field(repr=False)

    def __len__(self) -> int:
        return len(self.entries)

    def maps(self) -> tuple[PlanarMap, ...]:
        """The maps, :attr:`entries` itself: built by the enumeration, or
        validated by :func:`catalog_from_text` when read from text."""
        return self.entries


def _check_cap(edges: int, default: int, cap: int | None = None) -> None:
    cap = default if cap is None else cap
    if edges > cap:
        raise CapExceeded(f"{edges} edges exceeds cap {cap}")


# -- general rooted maps, by edge count ----------------------------------------

def _root_chords(pmap: PlanarMap | None, corner: int | None = None):
    """Raw ``(sigma, alpha)`` of the maps whose root edge is a chord of
    ``pmap`` (None is the vertex map), rooted at dart ``len(sigma) - 1``:
    one to each corner of the root face, or to ``corner`` alone.

    The new root r = n+1 goes into the root corner, just before the root
    f0; its partner r' = n+2 goes into one of the k+1 corners of the root
    face (f0, ..., f_{k-1}): before f0 after r (j = 0), before r (j = k),
    or before f_j (0 < j < k), which follows alpha(f_{j-1}).  The darts
    f0, ..., f_{j-1} then bound a new face of degree j + 1, and the root
    face keeps the other k - j + 1.
    """
    if pmap is None:
        yield [2, 1], (2, 1)  # the loop
        return
    n = len(pmap.sigma)
    r, r2 = n + 1, n + 2
    alpha = pmap.alpha + (r2, r)
    face = pmap.root_face()
    k = len(face)
    f0 = face[0]
    last = alpha[face[-1] - 1]  # sigma(last) = f0
    for j in range(k + 1) if corner is None else (corner,):
        sigma = list(pmap.sigma)
        if j == 0:
            sigma[last - 1] = r
            sigma += [r2, f0]
        elif j == k:
            sigma[last - 1] = r2
            sigma += [f0, r]
        else:
            sigma[last - 1] = r
            sigma[alpha[face[j - 1] - 1] - 1] = r2
            sigma += [f0, face[j]]
        yield sigma, alpha


def _bridge(m1: PlanarMap | None, m2: PlanarMap | None):
    """Raw ``(sigma, alpha)`` of the map whose root edge is a bridge from
    ``m1`` to ``m2`` (None is the vertex map), rooted at dart
    ``len(sigma) - 1``.

    ``m2``'s darts follow ``m1``'s; the new root r sits just before
    ``m1``'s root in its rotation and its partner r + 1 just before
    ``m2``'s root, and either is a fixed point of sigma on a vertex map.
    """
    sigma, alpha, roots = [], (), []
    for m in (m1, m2):
        if m is None:
            roots.append(None)
            continue
        n = len(sigma)
        sigma += [d + n for d in m.sigma]
        alpha += tuple([d + n for d in m.alpha])
        roots.append(m.root + n)
    r = len(sigma) + 1
    sigma += [r, r + 1]
    for new, root in zip((r, r + 1), roots):
        if root is not None:
            sigma[sigma.index(root)] = new
            sigma[new - 1] = root
    return sigma, alpha + (r + 1, r)


def _smaller(e: int) -> tuple[PlanarMap | None, ...]:
    """The maps with e edges; (None,), the vertex map, when e is 0."""
    return (None,) if e == 0 else _family(CatalogFilter(e=e)).maps()


def _root_edge_maps(e: int):
    """Raw ``(sigma, alpha)`` of every rooted map with e edges, each
    rooted at dart ``len(sigma) - 1`` and built exactly once."""
    for m in _smaller(e - 1):
        yield from _root_chords(m)
    for e1 in range(e):
        right = _smaller(e - 1 - e1)
        for m1 in _smaller(e1):
            for m2 in right:
                yield _bridge(m1, m2)


def _root_face_counts(e: int) -> list[list[int]]:
    """Rows G[e'][k] for e' <= e: the rooted maps with e' edges and a root
    face of degree k, counted as :func:`_root_edge_maps` builds them.  A
    root chord of a map whose root face has degree k' leaves one of each
    degree 1, ..., k'+1; a root bridge adds the two degrees plus 2."""
    rows = [[1]]  # the vertex map
    for n in range(1, e + 1):
        row = [0] * (2 * n + 1)
        for k, c in enumerate(rows[n - 1]):
            for j in range(1, k + 2):
                row[j] += c
        for n1 in range(n):
            for k1, c1 in enumerate(rows[n1]):
                for k2, c2 in enumerate(rows[n - 1 - n1]):
                    row[k1 + k2 + 2] += c1 * c2
        rows.append(row)
    return rows


def _catalog(filt: CatalogFilter, built) -> Catalog:
    """The catalog of ``built``, raw ``(sigma, alpha)`` pairs each rooted
    at dart ``len(sigma) - 1`` and each built once.

    Each map is canonicalised once, into the canonical map's arrays; equal
    alpha arrays are kept once per catalog.  The array pairs are sorted
    and compared with their neighbours before each map is built, once.  A
    short code (a disconnected construction) raises :class:`Disconnected`
    and two equal codes raise :class:`InternalMismatch`.
    """
    shared: dict = {}  # alpha -> alpha, so that each is held once
    codes = []
    for sigma, alpha in built:
        code_sigma, code_alpha, _ = _canonical(sigma, alpha, len(sigma) - 1)
        if len(code_sigma) < len(sigma):
            raise Disconnected("the darts do not form a connected map")
        codes.append((code_sigma, shared.setdefault(code_alpha, code_alpha)))
    codes.sort()
    if any(starmap(eq, pairwise(codes))):
        raise InternalMismatch(f"a map of {filt} was built twice")
    return Catalog(filt, tuple([PlanarMap(sigma, alpha, 1)
                                for sigma, alpha in codes]))


def enumerate_maps(e: int) -> Catalog:
    """Catalog of all rooted planar maps with e edges, built once per
    process."""
    if e < 1:
        raise Infeasible("edge count must be at least 1")
    _check_cap(e, EDGE_CAP)
    return _family(CatalogFilter(e=e))


# -- q-angulation boundary cells -----------------------------------------------

def _cell_maps(q: int, f: int, p: int, factors: dict):
    """Every rooted map with f internal q-gons and a root face of degree
    p, built once each, as a raw :class:`PlanarMap` rooted at dart
    ``dart_count - 1``; cell (0, 0) is [None], the vertex map.

    The root edge is a chord to corner q - 1 of the root face of a map of
    cell (f-1, p+q-2), which closes a q-gon, or a bridge between maps of
    cells (f1, p1) and (f-f1, p-2-p1).  The chord chain is streamed, and
    the bridge factors, whose root faces are shorter, are built once into
    ``factors``, a cell -> list memo for one build.
    """
    if f == p == 0:
        yield None
        return
    if f < 0 or p < 1 or (q * f + p) % 2:
        return
    chain = factors.get((f - 1, p + q - 2))
    if chain is None:
        chain = _cell_maps(q, f - 1, p + q - 2, factors)
    for m in chain:
        for sigma, alpha in _root_chords(m, q - 1):
            yield PlanarMap(tuple(sigma), alpha, len(sigma) - 1)
    for f1 in range(f + 1):
        for p1 in range(p - 1):
            right = _factor(q, f - f1, p - 2 - p1, factors)
            if not right:
                continue
            for m1 in _factor(q, f1, p1, factors):
                for m2 in right:
                    sigma, alpha = _bridge(m1, m2)
                    yield PlanarMap(tuple(sigma), alpha, len(sigma) - 1)


def _factor(q: int, f: int, p: int, factors: dict) -> list:
    """The maps of cell (f, p), built on the first call of a build."""
    if (f, p) not in factors:
        factors[f, p] = list(_cell_maps(q, f, p, factors))
    return factors[f, p]


_CATALOGS: dict[CatalogFilter, Catalog] = {}


def _family(filt: CatalogFilter) -> Catalog:
    """The catalog of ``filt`` from the store, built there on a miss: a
    general level from :func:`_root_edge_maps`; a q-angulation family
    from the cell (``filt.f``, ``filt.perimeter``) of :func:`_cell_maps`,
    canonicalising only the raw maps that pass the ``simple`` and
    ``bridgeless`` tests; the general families of one root face degree
    of a level all at once, in one pass over the level; any other general
    family as the subsequence of its root face degree's family (or of its
    level, with no degree) that :func:`_in_family` keeps.  Each keeps its
    level's order, so its entries stay sorted.
    """
    if filt in _CATALOGS:
        return _CATALOGS[filt]
    if filt.q:
        cat = _catalog(filt, [
            (m.sigma, m.alpha)
            for m in _cell_maps(filt.q, filt.f, filt.perimeter, {})
            if (not filt.simple or BoundaryMap(m).is_simple())
            and (not filt.bridgeless or BoundaryMap(m).is_bridgeless())])
    elif filt == CatalogFilter(e=filt.e):
        cat = _catalog(filt, _root_edge_maps(filt.e))
    elif filt == CatalogFilter(e=filt.e, perimeter=filt.perimeter):
        # one pass stores the level's maps of every root face degree (no
        # map has a root face longer than 2e)
        if filt.perimeter <= 2 * filt.e:
            buckets: dict[int, list[PlanarMap]] = {
                p: [] for p in range(1, 2 * filt.e + 1)}
            for pm in _family(CatalogFilter(e=filt.e)).entries:
                buckets[len(pm.root_face())].append(pm)
            for p, maps in buckets.items():
                bucket = CatalogFilter(e=filt.e, perimeter=p)
                _CATALOGS[bucket] = Catalog(bucket, tuple(maps))
        cat = _CATALOGS.get(filt, Catalog(filt, ()))
    else:
        # the maps of its root face degree, or its level, filtered
        base = _family(CatalogFilter(e=filt.e, perimeter=filt.perimeter))
        cat = Catalog(filt, tuple([pm for pm in base.entries
                                   if _in_family(pm, filt)]))
    _CATALOGS[filt] = cat
    return cat


def _check_boundary_family(q: int, f: int, e: int, perimeter: int,
                           cap: int | None = None) -> None:
    """Raise unless the boundary family is feasible and within the cap."""
    if min(q, f, e, perimeter) < 0:
        raise Infeasible("q, f, e and the perimeter must be nonnegative")
    if q == 0:
        if e < 1:
            raise Infeasible("general boundary catalogs need an edge count")
        _check_cap(e, EDGE_CAP, cap)
        return
    total = q * f + perimeter
    if total % 2:
        raise Infeasible(f"q={q}, f={f}, perimeter={perimeter}: "
                         "odd total degree")
    _check_cap(total // 2, QANG_EDGE_CAP, cap)
    if perimeter < 2:
        raise Infeasible("perimeter must be at least 2")
    if e and e != total // 2:
        raise Infeasible(f"q={q}, f={f}, perimeter={perimeter}: "
                         f"{total // 2} edges, not {e}")


def enumerate_boundary_maps(q: int = 0, f: int = 0, e: int = 0,
                            perimeter: int = 0, simple: bool = False,
                            bridgeless: bool = False,
                            cap: int | None = None) -> Catalog:
    """Catalog of rooted maps whose root face matches the boundary filter."""
    _check_boundary_family(q, f, e, perimeter, cap)
    return _family(CatalogFilter(q, f, e, perimeter, simple, bridgeless))


# -- decorated brute-force counts -----------------------------------------------

@lru_cache(maxsize=1)  # the callers take every tree size of one map in turn
def _edge_masks(pmap: PlanarMap) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The edge ids of ``pmap`` in increasing order, and the mask of each:
    bit v is set for each end vertex v, named as
    :meth:`~mapglue.maps.PlanarMap.vertex_of` names it."""
    vid = _vertex_ids(pmap.sigma)
    alpha = pmap.alpha
    edges = tuple(pmap.edges())
    return edges, tuple([1 << vid[e] | 1 << vid[alpha[e - 1]]
                         for e in edges])


def _without(edges: tuple, masks: tuple, edge: int):
    """``edges`` and their ``masks`` without ``edge``, and its mask."""
    i = edges.index(edge)
    return edges[:i] + edges[i + 1:], masks[:i] + masks[i + 1:], masks[i]


def _subtrees(pmap: PlanarMap, m: int, through: int | None = None):
    """``(edges, vertices)`` of every m-edge tree submap, the edges as a
    frozenset of edge ids and the vertices as a mask (bit v for vertex
    v); only the trees holding the edge ``through`` when it is given."""
    return _trees_among(*_edge_masks(pmap), m, through)


def _trees_among(edges: tuple, masks: tuple, m: int, through: int | None):
    """:func:`_subtrees` over ``edges`` with the vertex masks ``masks``
    (:func:`_edge_masks`), in the order of :func:`itertools.combinations`;
    ``through`` is joined to each (m-1)-subset of the others.

    m edges form a tree exactly when they are connected and span m + 1
    vertices: their masks have m + 1 bits between them, and a sweep from
    the first edge, repeated while it grows, reaches all of those bits.
    The masks of every subset are joined in C, so only the subsets that
    span m + 1 vertices are swept.
    """
    head, first, k = (), 0, m
    if through is not None:
        if m < 1:
            return
        edges, masks, first = _without(edges, masks, through)
        head, k = (through,), m - 1
    spans = map(reduce, repeat(or_), combinations(masks, k), repeat(first))
    for combo, ends, verts in zip(combinations(edges, k),
                                  combinations(masks, k), spans):
        if verts.bit_count() == m + 1:
            reach, last = first or ends[0], 0
            while reach != last and reach != verts:
                last = reach
                for x in ends:
                    if x & reach:
                        reach |= x
            if reach == verts:
                yield frozenset(head + combo), verts


def tree_submaps(pmap: PlanarMap, m: int,
                 through: int | None = None) -> list[frozenset[int]]:
    """All m-edge tree submaps, as frozensets of edge ids; only those
    holding the edge id ``through`` when it is given."""
    return [edges for edges, _ in _subtrees(pmap, m, through)]


def sphere_qangulations(q: int, f: int) -> tuple[PlanarMap, ...]:
    """All rooted maps of the sphere whose f faces all have degree q,
    sorted by code.

    Such a map is exactly a map whose root face is a q-gon and whose other
    f - 1 faces are q-gons, so the pool is the family of the cell
    (f - 1, q), held in the store.
    The e-edge general level filtered by face degree gives the same maps
    in the same order; the tests keep that filter as the reference.
    """
    if q * f % 2:
        raise Infeasible(f"q={q}, f={f}: odd total degree")
    e = q * f // 2
    _check_cap(e, QANG_EDGE_CAP)
    if e < 1:
        raise Infeasible("edge count must be at least 1")
    return _family(CatalogFilter(q, f - 1, perimeter=q)).maps()


def _forests(pool, sizes: list[int], rooted_labeled: bool) -> int:
    """Forest decorations of the maps of ``pool``, counted through the
    ordered tuples of vertex-disjoint tree submaps whose tree i has
    ``sizes[i]`` edges.

    Rooted-labeled: tree 1 holds the root edge, and every other tree has
    2 m_i root darts; the others miss tree 1, so they are drawn from the
    map without its root edge.  Unlabeled: vertex-disjoint trees are
    distinct, so a forest is one tuple per order of its equal-size trees.
    """

    def tuples(choices, used=0) -> int:
        # one vertex mask from each list, pairwise disjoint and from used
        if len(choices) == 1:
            return list(map(used.__and__, choices[0])).count(0)
        rest = choices[1:]
        return sum(tuples(rest, used | verts) for verts in choices[0]
                   if not used & verts)

    rooted = rooted_labeled and bool(sizes)
    others = sizes[1:] if rooted else sizes
    total = 0
    for pm in pool:
        edges, masks = _edge_masks(pm)
        choices = []
        if rooted:
            root_edge = pm.edge_of(pm.root)
            choices.append([v for _, v in _trees_among(edges, masks, sizes[0],
                                                       root_edge)])
            edges, masks, _ = _without(edges, masks, root_edge)
        lists = {}
        for m in others:
            if m not in lists:
                lists[m] = [v for _, v in _trees_among(edges, masks, m,
                                                       None)]
            choices.append(lists[m])
        total += tuples(choices) if choices else 1
    if rooted_labeled:
        return total * prod(2 * m for m in sizes[1:])
    return total // prod(factorial(c) for c in Counter(sizes).values())


def brute_count_decorated(q: int, f: int | None = None, e: int | None = None,
                          tree_sizes=(1,), root_mode: str = "on-tree") -> int:
    """Count (rooted map, decoration) pairs by exhaustive search: the
    one-tree case of :func:`brute_count_forest`, rooted on the tree or
    anywhere.

    The family is sphere q-angulations with f faces when q is 3 or 4, and
    general maps with e edges when q is 0.  Since the catalogs contain each
    rooted map exactly once and a rooted map has no nontrivial automorphism,
    the count is a direct sum over catalog entries.
    """
    if root_mode not in ("on-tree", "anywhere"):
        raise Infeasible(f"unknown root mode {root_mode!r}")
    sizes = list(tree_sizes)
    if len(sizes) != 1:
        raise Infeasible("single-tree decorations only; see brute_count_forest")
    if q == 0:
        if e is None:
            raise Infeasible("general family needs an edge count")
        pool = enumerate_maps(e).maps()
    else:
        if f is None:
            raise Infeasible("q-angulation family needs a face count")
        pool = sphere_qangulations(q, f)
    return _forests(pool, sizes, root_mode == "on-tree")


def brute_count_forest(q: int, f: int, sizes, rooted_labeled: bool) -> int:
    """Exhaustive count of forest-decorated sphere q-angulations.

    Unlabeled: the map is rooted anywhere and the decoration is an unordered
    set of vertex-disjoint unrooted tree submaps with the given size
    multiset.  Rooted-labeled: the trees are ordered, the map root edge lies
    on tree 1 and serves as its root, and every other tree carries its own
    root dart (2 m_i choices).
    """
    return _forests(sphere_qangulations(q, f), list(sizes),
                    rooted_labeled)


# -- catalog persistence --------------------------------------------------------

_CATALOG_FIELDS = ("q", "f", "e", "perim", "simple", "bridgeless", "count")


def catalog_to_text(cat: Catalog) -> str:
    filt = cat.filter
    lines = [
        f"catalog q={filt.q} f={filt.f} e={filt.e} perim={filt.perimeter} "
        f"simple={int(filt.simple)} bridgeless={int(filt.bridgeless)} "
        f"count={len(cat.entries)} version={CATALOG_VERSION}"
    ]
    lines.extend(",".join(map(str, m.sigma + m.alpha)) for m in cat.entries)
    body = "".join(line + "\n" for line in lines)
    return body + _checksum_line(body) + "\n"


def _checksum_line(body: str) -> str:
    return "checksum=sha256:" + sha256(body.encode()).hexdigest()


def catalog_from_text(text: str) -> Catalog:
    """The catalog a file holds, refused with FormatError unless its
    checksum, version and header hold and its entries are strictly
    increasing canonical codes of maps of the family its header names.

    The header's count must equal the entry lines, and each entry is read
    and checked in turn.  A general family with e edges, and perhaps a
    perimeter p, must then hold G[e][p] maps of :func:`_root_face_counts`
    (the row sum without p).  That table costs O(e^4), so the header's
    count is first bounded without it: the Catalan(e-1) plane trees with
    e-1 edges, each with a root chord to one corner of its root face,
    give distinct maps of every root face degree from 1 to 2e-1, and the
    plane trees with e edges give degree 2e, so G[e][p] >= Catalan(e-1)
    when 1 <= p <= 2e, and G[e][p] = 0 when p > 2e.  The table is then
    built only for a file of at least Catalan(e-1) entries with e edges.
    Other families have no count to check yet: simple, bridgeless and
    q-angulation ones wait for an exact count kernel of q-angulations
    with a boundary.
    """
    lines = text.splitlines()
    if len(lines) < 2 or not lines[-1].startswith("checksum="):
        raise FormatError("missing checksum line")
    # the body is not kept: it would double the text held while reading
    if lines[-1] != _checksum_line("".join(ln + "\n" for ln in lines[:-1])):
        raise FormatError("catalog checksum mismatch")
    head = _record(lines[0], "catalog", _CATALOG_FIELDS, ("version",))
    if "version" not in head:
        raise FormatError("catalog header has no format version")
    if head["version"] != CATALOG_VERSION:
        raise FormatError(f"catalog format version {head['version']}, "
                          f"expected {CATALOG_VERSION}")
    q, f, e, perim, simple, bridgeless, count = _ints(
        ",".join(head[k] for k in _CATALOG_FIELDS), count=7)
    filt = CatalogFilter(q, f, e, perim, bool(simple), bool(bridgeless))
    if len(lines) - 2 != count:
        raise FormatError("catalog count does not match the entry lines")
    general = e > 0 and filt == CatalogFilter(e=e, perimeter=perim)
    face = f" and a root face of degree {perim}" if perim else ""
    # Catalan(k) >= 2^(k-1) > count once k exceeds count's bit length, so
    # the minimum keeps the Catalan number small for a header's huge e
    if general and (count != 0 if perim > 2 * e else
                    count < catalan(min(e - 1, count.bit_length() + 1))):
        raise FormatError(f"catalog count {count} is impossible for rooted "
                          f"maps with {e} edges{face}")
    # the one place where a code becomes a map, so every map is validated
    shared: dict = {}  # alpha -> alpha, as in _catalog
    maps, last = [], ()
    for line in lines[1:-1]:
        code = tuple(_ints(line))
        if last >= code:
            raise FormatError("catalog entries are not strictly increasing")
        half = len(code) // 2
        alpha = code[half:]
        pm = build_map(code[:half], shared.setdefault(alpha, alpha), 1)
        if _canonical(pm.sigma, pm.alpha, 1)[:2] != (pm.sigma, pm.alpha):
            raise FormatError(f"catalog entry {code} is not a canonical code")
        if not _in_family(pm, filt):
            raise FormatError(f"catalog entry {code} is not a map of {filt}")
        maps.append(pm)
        last = code
    if general and perim <= 2 * e:
        row = _root_face_counts(e)[e]
        expected = row[perim] if perim else sum(row)
        if count != expected:
            raise FormatError(f"catalog count {count} is not the "
                              f"{expected} rooted maps with {e} edges{face}")
    return Catalog(filt, tuple(maps))


def _in_family(pm: PlanarMap, filt: CatalogFilter) -> bool:
    """Whether ``pm`` is a map of the family ``filt``."""
    return ((not filt.e or pm.edge_count == filt.e)
            and (not filt.perimeter
                 or len(pm.root_face()) == filt.perimeter)
            and (not (filt.q or filt.f) or pm.face_count - 1 == filt.f)
            and (not filt.q or all(len(c) == filt.q for c in pm.faces()
                                   if pm.root not in c))
            and (not filt.simple or BoundaryMap(pm).is_simple())
            and (not filt.bridgeless or BoundaryMap(pm).is_bridgeless()))


def _catalog_filename(filt: CatalogFilter) -> str:
    return (f"q{filt.q}_f{filt.f}_e{filt.e}_p{filt.perimeter}"
            f"_s{int(filt.simple)}_b{int(filt.bridgeless)}.cat")


def get_catalog(q: int, f: int, perimeter: int,
                simple: bool = False) -> Catalog:
    """The catalog of rooted maps with f internal q-gons, a root face of
    degree ``perimeter`` and, if ``simple``, a simple boundary: the
    store's, else the file of the MAPGLUE_CATALOG_DIR directory, which is
    stored, else built by :func:`_family` and saved there when that
    directory is set.  A family the process holds is neither read from
    nor written to a file, and the cap is checked before either.  A file
    or directory that cannot be read or written raises
    :class:`MapGlueError`, and a file that is not UTF-8 text
    :class:`FormatError`, each naming the path."""
    _check_boundary_family(q, f, 0, perimeter)
    filt = CatalogFilter(q, f, perimeter=perimeter, simple=simple)
    directory = os.environ.get("MAPGLUE_CATALOG_DIR")
    if filt in _CATALOGS or directory is None:
        return _family(filt)
    path = os.path.join(directory, _catalog_filename(filt))
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path} is not UTF-8 text: {exc}") from None
        except OSError as exc:
            raise MapGlueError(f"cannot read {path}: {exc}") from None
        cat = catalog_from_text(text)
        if cat.filter != filt:
            raise FormatError(f"{path} holds the catalog of {cat.filter}, "
                              f"not of {filt}")
        _CATALOGS[filt] = cat
        return cat
    cat = _family(filt)
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(catalog_to_text(cat))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:
        raise MapGlueError(f"cannot save {path}: {exc}") from None
    return cat
